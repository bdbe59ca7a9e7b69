(** Fleet engine: parallel multi-machine execution on OCaml 5 domains.

    The paper's whole point is consolidation — one real machine
    multiplexing many virtual machines.  The fleet engine is the host
    side of that story: a batch of {e independent} jobs (each a fully
    self-contained [Machine.t] booted through the {!Vax_workloads.Runner}
    entry points) drained from one work queue by several worker domains.

    Determinism rule: a job's result — cycles, trap counts, TLB/block
    statistics, console output, oracle coverage — is {b bit-identical}
    whatever [~jobs] is, including 1.  Nothing mutable is shared between
    jobs: every job builds its own workload images, machine, trace and
    metrics registry inside its worker domain; the only cross-domain
    state is the work-queue index (an [Atomic]) and the memoized vaxlint
    static pass (a mutex-guarded cache keyed on code-image content,
    whose entries are immutable once published).  Per-job metrics are
    merged after join with {!Vax_obs.Metrics.merge}.  Only the report-level wall-clock figures
    ([wall_seconds], [jobs_per_sec]) depend on the host.

    Crash isolation: an exception escaping one job (machine-check storm,
    nonexistent-memory access, a bug) is caught at the job boundary and
    reported as that job's [Error]; the other jobs and the fleet itself
    are unaffected. *)

type mode = Bare | Vm

type spec =
  | Workload of { workload : string; mode : mode; mmio : bool }
      (** a named {!Vax_workloads.Catalog} workload; [mmio] selects the
          MMIO I/O discipline for VM jobs (ignored for bare jobs) *)
  | Custom of (unit -> Vax_workloads.Runner.measurement)
      (** an arbitrary run thunk (tests, bespoke harnesses); executed on
          the worker domain, so it must not touch shared mutable state *)

type job = {
  job_name : string;
  spec : spec;
  max_cycles : int option;  (** [None] = the Runner default *)
  retries : int;
      (** extra attempts after a raised exception: each retry rebuilds
          the job from scratch (fresh machine, fresh injection engine)
          with the cycle budget doubled per attempt; a job still failing
          after all attempts is quarantined (reported as [Error]) *)
  inject : Vax_fault.Fault_plan.t option;
      (** fault plan armed (as a fresh engine) on every attempt of this
          job; [None] = fully disarmed.  Ignored for [Custom] specs. *)
}

val workload_job : ?mode:mode -> ?mmio:bool -> ?max_cycles:int ->
  ?retries:int -> ?inject:Vax_fault.Fault_plan.t -> ?name:string ->
  string -> job
(** [workload_job w] is a job running catalog workload [w] (default
    [Vm] mode, KCALL I/O, Runner default cycle budget, no retries, no
    fault plan, named [w]). *)

val catalog_jobs : n:int -> mode:mode -> mmio:bool -> job list
(** [n] jobs drawn round-robin from {!Vax_workloads.Catalog.names},
    named ["<workload>#<index>"] — the standard consolidation batch
    used by [vaxrun --fleet] and the throughput benchmark. *)

type job_stats = {
  outcome : Vax_dev.Machine.outcome;
  total_cycles : int;
  guest_cycles : int;
  monitor_cycles : int;
  instructions : int;
  console : string;
  metrics : (string * int) list;
      (** {!Vax_obs.Metrics.snapshot} of the job's machine after the
          run: [tlb.*], [blocks.*], [cpu.*], [mmu.*], devices *)
  oracle : Vax_analysis.Oracle.coverage;
  attempts : int;  (** 1 = succeeded first try *)
  fault : Vax_fault.Engine.status option;
      (** injection status (fired entries, containment accounting) when
          the job carried a fault plan *)
}

type job_error = {
  error : string;  (** the printed exception *)
  backtrace : string;
      (** [Printexc.get_backtrace] at the final failure — the raise
          site, not just the exception name *)
  attempts : int;  (** attempts actually made before quarantine *)
}

type job_result = (job_stats, job_error) result
(** [Error] when every attempt raised; the job is quarantined. *)

type report = {
  njobs : int;
  domains : int;  (** worker domains actually used *)
  results : (job * job_result) array;  (** in input order, one per job *)
  merged : (string * int) list;
      (** {!Vax_obs.Metrics.merge} of every successful job's metrics *)
  wall_seconds : float;  (** host wall-clock for the whole batch *)
  jobs_per_sec : float;
}

val run : ?jobs:int -> job list -> report
(** Run the batch on [max 1 (min jobs njobs)] worker domains ([jobs]
    defaults to [Domain.recommended_domain_count ()]).  With [~jobs:1]
    everything runs on the calling domain — the serial baseline the
    determinism tests compare against. *)

val crashed : report -> (job * job_error) list
(** The jobs whose every attempt raised, with their diagnostics. *)

val to_json : report -> Vax_obs.Json.t
(** The [vax-fleet/2] report: batch figures, per-job results in input
    order (deterministic fields only, no console text) including
    attempts, per-job fault/containment status and quarantine
    diagnostics, and the merged metrics aggregate. *)

val pp : Format.formatter -> report -> unit
(** Human-readable per-job table plus the batch summary line. *)
