(** Decoded-instruction cache.

    Splits instruction decode into a static half and a dynamic half.  The
    static half — opcode, specifier shapes, displacement/immediate values,
    byte offsets — is a pure function of the instruction bytes, captured
    here as a {!template}.  The dynamic half (register reads, memory
    operand evaluation, side effects, cycle charges) is replayed against
    machine state on every execution by [Decode.operandize].

    Templates are cached in a direct-mapped table keyed by the physical
    address of the instruction's first byte, so virtual aliasing and
    address-space switches cannot confuse entries.  An entry is live only
    while two generation counters still match what was recorded at fill
    time:

    - {!Vax_mem.Mmu.tb_generation}: bumped by TBIA, TBIS, LDPCTX process
      invalidation, and MAPEN changes;
    - {!Vax_mem.Phys_mem.page_gen} of *every* page holding instruction
      bytes: bumped by each store into the page, which makes
      self-modifying code and DMA into code pages decode fresh bytes on
      the next execution.  A page-straddling instruction records both
      pages' generations, so a store into its second page invalidates it
      too; its second-page *translation* is covered by the TB generation
      (any change that could remap it bumps the counter).

    Only instructions whose bytes lie entirely in RAM are cached. *)

open Vax_arch
open Vax_mem

(** Static shape of one operand specifier: everything the parser extracts
    from the instruction bytes, independent of machine state. *)
type shape =
  | Sh_literal of Word.t  (** short literal or immediate: the value *)
  | Sh_register of int
  | Sh_reg_deferred of int  (** [(Rn)]; Rn = PC sees the updated PC *)
  | Sh_autodec of int
  | Sh_autoinc of int
  | Sh_autoinc_deferred of int
  | Sh_absolute of Word.t
  | Sh_disp of { rn : int; disp : Word.t; deferred : bool }
  | Sh_branch of Word.t  (** branch displacement *)

type tspec = {
  t_access : Opcode.access;
  t_width : Opcode.width;
  t_shape : shape;
  t_after : int;
      (** byte offset from the instruction start to just past this
          specifier — the cursor value PC-relative evaluation sees *)
}

type template = { t_opcode : Opcode.t; t_specs : tspec list; t_len : int }

val empty_template : template

type t

val create : unit -> t
(** 8192 slots. *)

val find : t -> mmu:Mmu.t -> int -> template
(** [find t ~mmu pa] returns the live template for the instruction at
    physical address [pa], or raises [Not_found].  Counts a hit or miss;
    stale entries (either generation moved on) miss. *)

val store : t -> mmu:Mmu.t -> ?pa2:int -> int -> template -> unit
(** Fill the slot for [pa], recording current generations.  [pa2] is the
    physical address of the instruction's first byte on its second page
    when it straddles a page boundary (the caller resolves it; a
    straddler with no [pa2] is uncacheable).  Silently does nothing when
    the instruction is uncacheable (zero length, bytes not in RAM, or an
    unresolvable second page). *)

val hits : t -> int
val misses : t -> int
val reset_stats : t -> unit

val clear : t -> unit
(** Drop every entry (diagnostics/tests). *)
