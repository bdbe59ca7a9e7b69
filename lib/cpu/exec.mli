(** Instruction execution: one architectural step at a time.

    [step] checks for a deliverable interrupt, then fetches, decodes and
    executes one instruction, delivering any resulting exception.  All
    mode/privilege/virtualization rules of the paper's Table 4 are
    enforced here and in {!Microcode}. *)

type status =
  | Stepped  (** one instruction (or interrupt delivery) completed *)
  | Machine_halted  (** HALT executed in kernel mode on the bare machine *)
  | Stopped  (** the host agent requested the machine stop *)

val step : State.t -> status

val run : State.t -> ?max_instructions:int -> unit -> status
(** Step until halt/stop or the instruction budget is exhausted
    ([Stepped] then means "budget exhausted").  The machine loop in
    [Vax_dev.Machine] is the full-featured driver; this one is for tests
    and bare-CPU programs with no devices. *)

type engine = Stepper | Blocks
(** [Stepper] is the reference per-step interpreter; [Blocks] dispatches
    through a {!Block_cache} of straight-line superblocks with
    pre-resolved handlers.  The two produce bit-identical architectural
    state, simulated cycle counts, and interrupt latencies — [Blocks]
    only changes host wall-clock time. *)

val step_blocks : State.t -> Block_cache.t -> status
(** One architectural step under the block engine.  Interrupts are
    sampled at every instruction boundary, exactly as in {!step}: a block
    never runs more than one instruction per call — the cache contributes
    compiled slots (operands pre-resolved, handlers pre-dispatched), not
    a different interleaving. *)

val run_blocks : State.t -> Block_cache.t -> ?max_instructions:int -> unit -> status
(** [run] under the block engine. *)
