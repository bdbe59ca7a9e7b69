open Vax_arch
open Vax_mem

type shape =
  | Sh_literal of Word.t
  | Sh_register of int
  | Sh_reg_deferred of int
  | Sh_autodec of int
  | Sh_autoinc of int
  | Sh_autoinc_deferred of int
  | Sh_absolute of Word.t
  | Sh_disp of { rn : int; disp : Word.t; deferred : bool }
  | Sh_branch of Word.t

type tspec = {
  t_access : Opcode.access;
  t_width : Opcode.width;
  t_shape : shape;
  t_after : int;
}

type template = { t_opcode : Opcode.t; t_specs : tspec list; t_len : int }

let empty_template = { t_opcode = Opcode.Nop; t_specs = []; t_len = 0 }

(* One direct-mapped slot per low bits of the instruction's physical
   address, stored as parallel arrays so creating a cache is a handful of
   cheap [Array.make] calls rather than thousands of record allocations.
   A slot is live only while every recorded generation still matches: the
   MMU's translation generation (TBIA/TBIS/LDPCTX/MAPEN changes) and the
   write generation of each physical page holding instruction bytes
   (self-modifying code, DMA).  A page-straddling instruction records the
   second page's frame in [pages2] (-1 for the common single-page case)
   so a store into either page invalidates it. *)
type t = {
  pas : int array;  (* -1 = empty *)
  page_gens : int array;
  pages2 : int array;  (* second page frame, -1 = single-page entry *)
  page_gens2 : int array;
  tb_gens : int array;
  tmpls : template array;
  mask : int;
  mutable hits : int;
  mutable misses : int;
}

let size = 8192 (* a power of two *)

let create () =
  {
    pas = Array.make size (-1);
    page_gens = Array.make size 0;
    pages2 = Array.make size (-1);
    page_gens2 = Array.make size 0;
    tb_gens = Array.make size 0;
    tmpls = Array.make size empty_template;
    mask = size - 1;
    hits = 0;
    misses = 0;
  }

let find t ~mmu pa =
  let i = pa land t.mask in
  if
    Array.unsafe_get t.pas i = pa
    && Array.unsafe_get t.tb_gens i = Mmu.tb_generation mmu
    && Array.unsafe_get t.page_gens i
       = Phys_mem.page_gen (Mmu.phys mmu) (pa lsr Addr.page_shift)
    && (let p2 = Array.unsafe_get t.pages2 i in
        p2 < 0
        || Array.unsafe_get t.page_gens2 i = Phys_mem.page_gen (Mmu.phys mmu) p2)
  then begin
    t.hits <- t.hits + 1;
    Array.unsafe_get t.tmpls i
  end
  else begin
    t.misses <- t.misses + 1;
    raise Not_found
  end

let store t ~mmu ?pa2 pa tmpl =
  let phys = Mmu.phys mmu in
  (* cache only instructions whose bytes lie in RAM; the lookup
     translation covers every byte of the first page, and a straddler
     additionally records the second page's frame and generation (its
     translation is covered by the TB generation: any change that could
     remap it bumps [tb_generation] and kills the entry) *)
  if tmpl.t_len > 0 && Phys_mem.in_ram phys pa then begin
    let straddles = Addr.offset pa + tmpl.t_len > Addr.page_size in
    let page2 =
      match pa2 with
      | Some p2 when straddles && Phys_mem.in_ram phys p2 ->
          p2 lsr Addr.page_shift
      | _ -> -1
    in
    if (not straddles) || page2 >= 0 then begin
      let i = pa land t.mask in
      t.pas.(i) <- pa;
      t.page_gens.(i) <- Phys_mem.page_gen phys (pa lsr Addr.page_shift);
      t.pages2.(i) <- page2;
      t.page_gens2.(i) <- (if page2 >= 0 then Phys_mem.page_gen phys page2 else 0);
      t.tb_gens.(i) <- Mmu.tb_generation mmu;
      t.tmpls.(i) <- tmpl
    end
  end

let hits t = t.hits
let misses t = t.misses

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0

let clear t =
  Array.fill t.pas 0 (Array.length t.pas) (-1);
  Array.fill t.pages2 0 (Array.length t.pages2) (-1);
  Array.fill t.tmpls 0 (Array.length t.tmpls) empty_template
