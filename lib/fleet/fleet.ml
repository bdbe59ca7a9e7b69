open Vax_dev
open Vax_workloads
open Vax_analysis
module Metrics = Vax_obs.Metrics
module Json = Vax_obs.Json

type mode = Bare | Vm

type spec =
  | Workload of { workload : string; mode : mode; mmio : bool }
  | Custom of (unit -> Runner.measurement)

type job = {
  job_name : string;
  spec : spec;
  max_cycles : int option;
  retries : int;
  inject : Vax_fault.Fault_plan.t option;
}

let workload_job ?(mode = Vm) ?(mmio = false) ?max_cycles ?(retries = 0)
    ?inject ?name workload =
  {
    job_name = Option.value ~default:workload name;
    spec = Workload { workload; mode; mmio };
    max_cycles;
    retries;
    inject;
  }

let catalog_jobs ~n ~mode ~mmio =
  let names = Array.of_list Catalog.names in
  List.init n (fun i ->
      let w = names.(i mod Array.length names) in
      workload_job ~mode ~mmio ~name:(Printf.sprintf "%s#%d" w i) w)

type job_stats = {
  outcome : Machine.outcome;
  total_cycles : int;
  guest_cycles : int;
  monitor_cycles : int;
  instructions : int;
  console : string;
  metrics : (string * int) list;
  oracle : Oracle.coverage;
  attempts : int;
  fault : Vax_fault.Engine.status option;
}

type job_error = { error : string; backtrace : string; attempts : int }
type job_result = (job_stats, job_error) result

type report = {
  njobs : int;
  domains : int;
  results : (job * job_result) array;
  merged : (string * int) list;
  wall_seconds : float;
  jobs_per_sec : float;
}

(* One attempt of one job, entirely on the calling (worker) domain:
   workload images, machine, trace and metrics are all built here and
   are private to the job.  The only thing shared is the Runner's
   read-only static analysis, memoized by code-image content.  Only
   deterministic data survives into the stats — the machine itself is
   dropped so a large fleet does not retain every machine's memory.  A
   fresh injection engine is armed from the job's plan every attempt,
   so a retried job replays exactly the same injections — retry is
   deterministic redo with a larger budget, not a different
   experiment. *)
let execute job ~attempt =
  let max_cycles =
    (* bounded backoff: attempt k gets the budget doubled k times *)
    Option.map (fun c -> c lsl (attempt - 1)) job.max_cycles
  in
  let engine = Option.map Vax_fault.Engine.create job.inject in
  let measurement =
    match job.spec with
    | Custom f -> f ()
    | Workload { workload; mode; mmio } -> (
        let built = Catalog.build ~force_mmio:(mode = Vm && mmio) workload in
        match mode with
        | Bare -> Runner.run_bare ?max_cycles ?inject:engine built
        | Vm ->
            let io_mode = if mmio then Some Vax_vmm.Vm.Mmio_io else None in
            Runner.run_vm ?io_mode ?max_cycles ?inject:engine built)
  in
  {
    outcome = measurement.Runner.outcome;
    total_cycles = measurement.Runner.total_cycles;
    guest_cycles = measurement.Runner.guest_cycles;
    monitor_cycles = measurement.Runner.monitor_cycles;
    instructions = measurement.Runner.instructions;
    console = measurement.Runner.console;
    metrics =
      Metrics.snapshot measurement.Runner.machine.Machine.metrics;
    oracle = Oracle.coverage measurement.Runner.oracle;
    attempts = attempt;
    fault = Option.map Vax_fault.Engine.status engine;
  }

let run ?jobs specs =
  let specs = Array.of_list specs in
  let n = Array.length specs in
  let requested =
    match jobs with
    | Some j ->
        if j < 1 then invalid_arg "Fleet.run: jobs must be >= 1";
        j
    | None -> Domain.recommended_domain_count ()
  in
  let domains = max 1 (min requested n) in
  let results = Array.make n None in
  (* the work queue: an atomic cursor over the job array.  Each slot of
     [results] is written by exactly one worker; [Domain.join] publishes
     the writes to the main domain. *)
  let next = Atomic.make 0 in
  let rec worker () =
    (* per-domain: backtrace recording is domain-local in OCaml 5 *)
    Printexc.record_backtrace true;
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      let job = specs.(i) in
      (* bounded deterministic retry: a job that raises is re-executed
         from scratch (fresh machine, fresh injection engine, doubled
         cycle budget) up to [retries] more times; a job that still
         fails is quarantined — reported as [Error], never rethrown
         into the fleet. *)
      let rec attempt k =
        match execute job ~attempt:k with
        | stats -> Ok stats
        | exception e ->
            let backtrace = Printexc.get_backtrace () in
            if k <= job.retries then attempt (k + 1)
            else
              Error { error = Printexc.to_string e; backtrace; attempts = k }
      in
      results.(i) <- Some (attempt 1);
      worker ()
    end
  in
  let t0 = Unix.gettimeofday () in
  if domains = 1 then worker ()
  else begin
    let workers = List.init (domains - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join workers
  end;
  let wall_seconds = Unix.gettimeofday () -. t0 in
  let results =
    Array.mapi
      (fun i r ->
        ( specs.(i),
          match r with
          | Some r -> r
          | None ->
              Error { error = "job never ran"; backtrace = ""; attempts = 0 }
        ))
      results
  in
  let merged =
    Metrics.merge
      (Array.fold_right
         (fun (_, r) acc ->
           match r with Ok s -> s.metrics :: acc | Error _ -> acc)
         results [])
  in
  {
    njobs = n;
    domains;
    results;
    merged;
    wall_seconds;
    jobs_per_sec =
      (if wall_seconds > 0.0 then float_of_int n /. wall_seconds else 0.0);
  }

let crashed report =
  Array.fold_right
    (fun (job, r) acc ->
      match r with Ok _ -> acc | Error e -> (job, e) :: acc)
    report.results []

let mode_name = function Bare -> "bare" | Vm -> "vm"
let outcome_name o = Format.asprintf "%a" Machine.pp_outcome o

let spec_fields = function
  | Workload { workload; mode; mmio } ->
      [
        ("workload", Json.Str workload);
        ("mode", Json.Str (mode_name mode));
        ("mmio", Json.Bool mmio);
      ]
  | Custom _ -> [ ("workload", Json.Str "<custom>") ]

let to_json report =
  let result_json (job, r) =
    Json.Obj
      (("job", Json.Str job.job_name)
       :: spec_fields job.spec
      @
      match r with
      | Ok s ->
          [
            ("ok", Json.Bool true);
            ("outcome", Json.Str (outcome_name s.outcome));
            ("total_cycles", Json.int s.total_cycles);
            ("guest_cycles", Json.int s.guest_cycles);
            ("monitor_cycles", Json.int s.monitor_cycles);
            ("instructions", Json.int s.instructions);
            ("oracle_predicted", Json.int s.oracle.Oracle.predicted_pairs);
            ("oracle_hit", Json.int s.oracle.Oracle.hit_pairs);
            ("oracle_events", Json.int s.oracle.Oracle.observed_events);
            ("attempts", Json.int s.attempts);
          ]
          @ (match s.fault with
            | None -> []
            | Some st -> [ ("fault", Vax_fault.Engine.status_to_json st) ])
      | Error e ->
          [
            ("ok", Json.Bool false);
            ("quarantined", Json.Bool true);
            ("error", Json.Str e.error);
            ("backtrace", Json.Str e.backtrace);
            ("attempts", Json.int e.attempts);
          ])
  in
  Json.Obj
    [
      ("schema", Json.Str "vax-fleet/2");
      ("jobs", Json.int report.njobs);
      ("domains", Json.int report.domains);
      ("wall_seconds", Json.Num report.wall_seconds);
      ("jobs_per_sec", Json.Num report.jobs_per_sec);
      ( "results",
        Json.Arr (Array.to_list (Array.map result_json report.results)) );
      ( "merged_metrics",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.int v)) report.merged) );
    ]

let pp ppf report =
  Format.fprintf ppf "%-18s %-12s %-11s %14s %12s %10s@." "job" "workload"
    "outcome" "cycles" "instructions" "events";
  Array.iter
    (fun (job, r) ->
      let w =
        match job.spec with
        | Workload { workload; mode; _ } ->
            Printf.sprintf "%s/%s" workload (mode_name mode)
        | Custom _ -> "<custom>"
      in
      match r with
      | Ok s ->
          Format.fprintf ppf "%-18s %-12s %-11s %14d %12d %10d@."
            job.job_name w (outcome_name s.outcome) s.total_cycles
            s.instructions s.oracle.Oracle.observed_events
      | Error e ->
          Format.fprintf ppf "%-18s %-12s QUARANTINED after %d attempt%s: %s@."
            job.job_name w e.attempts
            (if e.attempts = 1 then "" else "s")
            e.error)
    report.results;
  Format.fprintf ppf
    "%d jobs on %d domain%s: %.3fs wall, %.2f jobs/sec@." report.njobs
    report.domains
    (if report.domains = 1 then "" else "s")
    report.wall_seconds report.jobs_per_sec
