(** Per-instruction facts proven by the static liveness pass
    ({!Liveness.facts_of_images}), keyed by virtual address.

    Nothing at run time consumes them: the superblock compiler is
    fact-free, and the table is the static pass's result for tests and
    the benchmark's analysis probe.  Each fact records
    - [f_cc_dead]: NZVC bits proven dead immediately {e after} the
      instruction (N=8, Z=4, V=2, C=1);
    - [f_dead_regs]: R0..R13 whose longword register write at this
      instruction is proven dead on every path;
    - [f_consts]: operand-index/value pairs proven constant on every
      path for pure register source operands.

    The [f_op]/[f_len] guard makes {!find} reject a fact when the bytes
    at its address no longer decode as the analyzed image said. *)

open Vax_arch

type fact = {
  f_op : Opcode.t;  (** guard: opcode the analysis decoded at this VA *)
  f_len : int;  (** guard: instruction length the analysis decoded *)
  f_cc_dead : int;  (** NZVC bits dead after the instruction *)
  f_dead_regs : int;
      (** mask of R0..R13 whose longword write here is dead on every
          path *)
  f_consts : (int * Word.t) list;
      (** operand index -> value proven constant on every path *)
}

val n_bit : int
val z_bit : int
val v_bit : int
val c_bit : int
val all_cc : int

type t = {
  tbl : (int, fact) Hashtbl.t;
  mutable dead_reg_writes : int;
      (** statically detected dead longword register writes (all of
          R0..R14; the R0..R13 subset is also recorded per fact) *)
  mutable summary_calls : int;
      (** JSB/BSBB/CALLS sites solved through a usable callee summary *)
  mutable summary_fallbacks : int;
      (** call sites that fell back to all-read/all-clobbered (computed
          callee, cross-image target, or summary forced to top) *)
  mutable solver_visits : int;
  mutable solver_updates : int;
}

val create : unit -> t

val add : t -> va:int -> fact -> unit
(** Insert a fact; on a VA collision between images, keep the
    intersection of what both agree on (conflicting decodes keep
    nothing). *)

val find : t -> va:int -> op:Opcode.t -> len:int -> fact option
(** The fact at [va], or [None] when absent or the opcode/length guard
    rejects it. *)
