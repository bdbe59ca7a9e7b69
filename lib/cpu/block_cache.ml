open Vax_arch
open Vax_mem

type slot = {
  s_pa : int;
  s_len : int;
  s_gen1 : int;
  s_exec : State.t -> Word.t -> unit;
}

type block = { b_pa : int; b_slots : slot array }

let empty_block = { b_pa = -1; b_slots = [||] }

type t = {
  blocks : block array;
  mask : int;
  (* cursor: where in a block the next instruction is expected *)
  mutable cur_block : block;
  mutable cur_ix : int;
  mutable cur_pa : int;  (* expected physical PC; -1 = no prediction *)
  (* fetch-translation memo for the cursor: when the next virtual PC is
     [cur_va] and neither the TB ([cur_fgen] vs the TB's mutation
     generation) nor the access mode ([cur_fmode]) has changed since the
     previous in-block fetch on the same page, the translation of
     [cur_va] is provably [cur_pa] and the I-fetch TB lookup is skipped;
     [cur_fhit] records whether that skipped lookup would have counted a
     TB hit (i.e. mapping was enabled).  -1 = no memo. *)
  mutable cur_va : int;
  mutable cur_fgen : int;
  mutable cur_fmode : Mode.t;
  mutable cur_fhit : bool;
  (* builder: slots accumulated from the cold path *)
  bld_slots : slot array;
  mutable bld_n : int;
  mutable bld_pa : int;  (* start of the block being built; -1 = idle *)
  mutable bld_next_pa : int;
  (* statistics *)
  mutable hits : int;
  mutable misses : int;
  mutable built : int;
  mutable invalidations : int;
}

let null_slot = { s_pa = -1; s_len = 0; s_gen1 = 0; s_exec = (fun _ _ -> ()) }

(* table slots (a power of two) and slots per block *)
let size = 2048
let max_block = 32

let create () =
  {
    blocks = Array.make size empty_block;
    mask = size - 1;
    cur_block = empty_block;
    cur_ix = 0;
    cur_pa = -1;
    cur_va = -1;
    cur_fgen = 0;
    cur_fmode = Mode.Kernel;
    cur_fhit = false;
    bld_slots = Array.make max_block null_slot;
    bld_n = 0;
    bld_pa = -1;
    bld_next_pa = -1;
    hits = 0;
    misses = 0;
    built = 0;
    invalidations = 0;
  }

let slot_valid phys s =
  s.s_gen1 = Phys_mem.page_gen phys (s.s_pa lsr Addr.page_shift)

let lookup t pa =
  let b = Array.unsafe_get t.blocks (pa land t.mask) in
  if b.b_pa = pa then b else empty_block

let insert t b = t.blocks.(b.b_pa land t.mask) <- b

(* Drop a stale block.  The table slot may already hold a different
   block (direct-mapped collision); only evict when it is this one. *)
let invalidate t b =
  let i = b.b_pa land t.mask in
  if t.blocks.(i) == b then t.blocks.(i) <- empty_block;
  t.invalidations <- t.invalidations + 1;
  if t.cur_block == b then begin
    t.cur_pa <- -1;
    t.cur_va <- -1
  end

(* ------------------------------------------------------------------ *)
(* Builder *)

let bld_reset t =
  t.bld_n <- 0;
  t.bld_pa <- -1;
  t.bld_next_pa <- -1

let bld_active t = t.bld_pa >= 0
let bld_full t = t.bld_n >= Array.length t.bld_slots

let bld_begin t ~pa =
  t.bld_n <- 0;
  t.bld_pa <- pa;
  t.bld_next_pa <- pa

let bld_append t s =
  t.bld_slots.(t.bld_n) <- s;
  t.bld_n <- t.bld_n + 1;
  t.bld_next_pa <- s.s_pa + s.s_len

(* Finalize the accumulated straight-line prefix into a block and install
   it; a single-slot block is still worth caching (its handler is
   pre-resolved).  Returns the new block's slot count, 0 when idle. *)
let bld_finish t =
  let n = t.bld_n in
  if bld_active t && n > 0 then begin
    insert t { b_pa = t.bld_pa; b_slots = Array.sub t.bld_slots 0 n };
    t.built <- t.built + 1
  end;
  bld_reset t;
  n

(* ------------------------------------------------------------------ *)

let hits t = t.hits
let misses t = t.misses
let built t = t.built
let invalidations t = t.invalidations

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.built <- 0;
  t.invalidations <- 0

let clear t =
  Array.fill t.blocks 0 (Array.length t.blocks) empty_block;
  t.cur_block <- empty_block;
  t.cur_ix <- 0;
  t.cur_pa <- -1;
  t.cur_va <- -1;
  bld_reset t
