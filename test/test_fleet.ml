(* Fleet engine tests: parallel-vs-serial bit-identity, input-order
   stability, crash isolation, Metrics.merge, the two-domain regression
   for the Runner's memoized oracle static pass, and the content key of
   that memo. *)

open Vax_workloads
open Vax_vmos
module Fleet = Vax_fleet.Fleet
module Metrics = Vax_obs.Metrics
module Oracle = Vax_analysis.Oracle

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let metrics_t = Alcotest.(list (pair string int))

(* Every catalog workload, in both modes: the full determinism surface. *)
let full_batch () =
  List.concat_map
    (fun w ->
      [
        Fleet.workload_job ~mode:Fleet.Bare ~name:(w ^ "/bare") w;
        Fleet.workload_job ~mode:Fleet.Vm ~name:(w ^ "/vm") w;
      ])
    Catalog.names

let stats_exn name = function
  | Ok (s : Fleet.job_stats) -> s
  | Error (e : Fleet.job_error) ->
      Alcotest.failf "job %s crashed: %s" name e.Fleet.error

(* The acceptance criterion: for every workload in the catalog, each
   per-job result of a [~jobs:4] run is bit-identical to the [~jobs:1]
   (serial, single-domain) run — cycles, instructions, console text,
   the whole metrics snapshot (TLB, block cache, per-vector exception
   counts, devices), and the oracle's coverage. *)
let test_parallel_matches_serial () =
  let batch = full_batch () in
  let serial = Fleet.run ~jobs:1 batch in
  let parallel = Fleet.run ~jobs:4 batch in
  check_int "serial used one domain" 1 serial.Fleet.domains;
  check_int "parallel used four domains" 4 parallel.Fleet.domains;
  check_int "same number of results" (Array.length serial.Fleet.results)
    (Array.length parallel.Fleet.results);
  Array.iteri
    (fun i (job_s, rs) ->
      let job_p, rp = parallel.Fleet.results.(i) in
      check_string "job order" job_s.Fleet.job_name job_p.Fleet.job_name;
      let s = stats_exn job_s.Fleet.job_name rs
      and p = stats_exn job_p.Fleet.job_name rp in
      let ctx fmt = job_s.Fleet.job_name ^ ": " ^ fmt in
      Alcotest.(check bool)
        (ctx "outcome") true
        (s.Fleet.outcome = p.Fleet.outcome);
      check_int (ctx "total cycles") s.Fleet.total_cycles p.Fleet.total_cycles;
      check_int (ctx "guest cycles") s.Fleet.guest_cycles p.Fleet.guest_cycles;
      check_int (ctx "monitor cycles") s.Fleet.monitor_cycles
        p.Fleet.monitor_cycles;
      check_int (ctx "instructions") s.Fleet.instructions p.Fleet.instructions;
      check_string (ctx "console") s.Fleet.console p.Fleet.console;
      Alcotest.check metrics_t (ctx "metrics snapshot") s.Fleet.metrics
        p.Fleet.metrics;
      check_int (ctx "oracle predicted pairs")
        s.Fleet.oracle.Oracle.predicted_pairs
        p.Fleet.oracle.Oracle.predicted_pairs;
      check_int (ctx "oracle hit pairs") s.Fleet.oracle.Oracle.hit_pairs
        p.Fleet.oracle.Oracle.hit_pairs;
      check_int (ctx "oracle events") s.Fleet.oracle.Oracle.observed_events
        p.Fleet.oracle.Oracle.observed_events)
    serial.Fleet.results;
  Alcotest.check metrics_t "merged metrics" serial.Fleet.merged
    parallel.Fleet.merged

(* Results land in input order however the domains interleave: job i of
   the report is job i of the batch, even when a later-queued job
   finishes first. *)
let test_input_order_stability () =
  let batch =
    List.init 9 (fun i ->
        let w = if i mod 3 = 0 then "mix" else "hello" in
        Fleet.workload_job ~mode:Fleet.Vm ~name:(Printf.sprintf "job%d" i) w)
  in
  let report = Fleet.run ~jobs:3 batch in
  check_int "all jobs reported" 9 (Array.length report.Fleet.results);
  Array.iteri
    (fun i (job, r) ->
      check_string "input order preserved" (Printf.sprintf "job%d" i)
        job.Fleet.job_name;
      ignore (stats_exn job.Fleet.job_name r))
    report.Fleet.results

(* A crash in one job (here a nonexistent-memory access escaping as an
   exception) is confined to that job's slot; neighbours complete and
   the batch report still covers every job. *)
let test_crash_isolation () =
  let boom () = raise (Vax_mem.Phys_mem.Nonexistent_memory 0xdead_beef) in
  let batch =
    [
      Fleet.workload_job ~mode:Fleet.Vm ~name:"ok-before" "hello";
      {
        Fleet.job_name = "crasher";
        spec = Fleet.Custom boom;
        max_cycles = None;
        retries = 0;
        inject = None;
      };
      Fleet.workload_job ~mode:Fleet.Vm ~name:"ok-after" "hello";
    ]
  in
  let report = Fleet.run ~jobs:2 batch in
  check_int "three results" 3 (Array.length report.Fleet.results);
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    n = 0 || go 0
  in
  (match report.Fleet.results.(1) with
  | _, Error (e : Fleet.job_error) ->
      Alcotest.(check bool)
        "error names the exception" true
        (contains ~sub:"Nonexistent_memory" e.Fleet.error);
      check_int "single attempt recorded" 1 e.Fleet.attempts
  | _, Ok _ -> Alcotest.fail "crasher reported Ok");
  let s0 = stats_exn "ok-before" (snd report.Fleet.results.(0)) in
  let s2 = stats_exn "ok-after" (snd report.Fleet.results.(2)) in
  check_int "neighbours identical" s0.Fleet.total_cycles s2.Fleet.total_cycles;
  Alcotest.(check (list (pair string string)))
    "crashed list" [ ("crasher", "crasher") ]
    (List.map
       (fun ((j : Fleet.job), _) -> (j.Fleet.job_name, j.Fleet.job_name))
       (Fleet.crashed report));
  Alcotest.check metrics_t "merged skips the crashed job"
    (Metrics.merge [ s0.Fleet.metrics; s2.Fleet.metrics ])
    report.Fleet.merged

let test_metrics_merge () =
  Alcotest.check metrics_t "empty" [] (Metrics.merge []);
  Alcotest.check metrics_t "singleton sorted" [ ("a", 1); ("b", 2) ]
    (Metrics.merge [ [ ("b", 2); ("a", 1) ] ]);
  Alcotest.check metrics_t "key-wise sum with missing keys"
    [ ("tlb.hits", 30); ("tlb.misses", 4); ("walks", 7) ]
    (Metrics.merge
       [
         [ ("tlb.hits", 10); ("walks", 7) ];
         [ ("tlb.hits", 20); ("tlb.misses", 4) ];
       ]);
  Alcotest.check metrics_t "three-way"
    [ ("x", 6) ]
    (Metrics.merge [ [ ("x", 1) ]; [ ("x", 2) ]; [ ("x", 3) ] ])

(* Regression for the mutex around Runner's memoized vaxlint static
   pass: two domains running the same workload concurrently hit the
   oracle cache (same content key) from both sides.  Unsynchronized,
   this races on the cache table; with the lock, every run completes
   with identical cycles.  [build] is called once per domain, so the
   variant passing a fresh [Catalog.build] gives each domain its own
   built system — different physical identity, same content. *)
let two_domains ~build =
  let runs = 8 in
  let work () =
    let built = build () in
    Array.init runs (fun _ ->
        let m = Runner.run_bare built in
        (m.Runner.total_cycles, m.Runner.instructions))
  in
  let other = Domain.spawn work in
  let here = work () in
  let there = Domain.join other in
  let c0, i0 = here.(0) in
  Array.iter
    (fun (c, i) ->
      check_int "cycles stable across domains" c0 c;
      check_int "instructions stable across domains" i0 i)
    (Array.append here there)

let test_oracle_cache_two_domains () =
  let built = Catalog.build "hello" in
  two_domains ~build:(fun () -> built)

let test_oracle_cache_two_domains_own_builds () =
  two_domains ~build:(fun () -> Catalog.build "hello")

(* The oracle cache is keyed on code-image content, so the static pass
   is shared by every run over equal images, however they were built.
   A short cycle budget suffices: the oracle is made before the run. *)
let short = 10_000

let run_mode ?flow mode built =
  match mode with
  | Fleet.Bare -> Runner.run_bare ?flow ~max_cycles:short built
  | Fleet.Vm -> Runner.run_vm ?flow ~max_cycles:short built

let predicted (m : Runner.measurement) = m.Runner.oracle.Oracle.predicted

let catalog_pairs =
  List.concat_map (fun w -> [ (w, Fleet.Bare); (w, Fleet.Vm) ]) Catalog.names

(* Two independent builds of each catalog workload, in each mode, share
   one predicted table.  Every first run goes in before any second run
   is checked, so the cache must hold all 18 pairs at once. *)
let test_cache_shares_equal_content () =
  let firsts =
    List.map
      (fun (w, mode) -> predicted (run_mode mode (Catalog.build w)))
      catalog_pairs
  in
  List.iter2
    (fun (w, mode) p1 ->
      let p2 = predicted (run_mode mode (Catalog.build w)) in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s shares one table" w
           (match mode with Fleet.Bare -> "bare" | Fleet.Vm -> "vm"))
        true (p1 == p2))
    catalog_pairs firsts

let compute_built iterations =
  Minivms.build ~programs:[ Programs.compute ~ident:1 ~iterations ] ()

(* Every input of the static pass is part of the key: the mode
   assumption, [flow], and the code bytes each select their own table. *)
let test_cache_no_false_sharing () =
  let distinct what a b =
    Alcotest.(check bool) (what ^ ": distinct tables") true (a != b)
  in
  let built = Catalog.build "hello" in
  distinct "bare vs vm"
    (predicted (run_mode Fleet.Bare built))
    (predicted (run_mode Fleet.Vm built));
  distinct "flow vs flowless"
    (predicted (run_mode ~flow:true Fleet.Vm built))
    (predicted (run_mode ~flow:false Fleet.Vm built));
  distinct "different code"
    (predicted (run_mode Fleet.Vm (compute_built 8000)))
    (predicted (run_mode Fleet.Vm (compute_built 4000)))

(* A program with one more system call than the cached one: the extra
   CHMK is a new VM-emulation site and shifts every site after it, so a
   table cached for the original would miss them and the strict oracle
   would raise [Oracle.Unpredicted]. *)
let test_cache_new_site_predicted () =
  let hello extra =
    Minivms.build
      ~programs:
        [
          (let a = Vax_asm.Asm.create ~origin:0 in
           if extra then Userland.sys_putc_imm a '!';
           Userland.sys_putc_imm a 'h';
           Userland.sys_exit a;
           {
             Minivms.prog_name = "hello";
             prog_image = Vax_asm.Asm.assemble a;
             prog_data_pages = 1;
           });
        ]
      ()
  in
  List.iter
    (fun extra ->
      let console = if extra then "!h" else "h" in
      let bare = Runner.run_bare (hello extra) in
      check_string "bare console" console bare.Runner.console;
      Alcotest.(check bool)
        "bare halted" true
        (bare.Runner.outcome = Vax_dev.Machine.Halted);
      let vm = Runner.run_vm (hello extra) in
      check_string "vm console" console vm.Runner.console;
      Alcotest.(check bool)
        "vm stopped" true
        (vm.Runner.outcome = Vax_dev.Machine.Stopped))
    [ false; true ]

let () =
  Alcotest.run "vax_fleet"
    [
      ( "fleet",
        [
          Alcotest.test_case "parallel == serial (full catalog)" `Quick
            test_parallel_matches_serial;
          Alcotest.test_case "input-order stability" `Quick
            test_input_order_stability;
          Alcotest.test_case "crash isolation" `Quick test_crash_isolation;
          Alcotest.test_case "Metrics.merge" `Quick test_metrics_merge;
          Alcotest.test_case "oracle cache from two domains" `Quick
            test_oracle_cache_two_domains;
          Alcotest.test_case "oracle cache from two domains, own builds"
            `Quick test_oracle_cache_two_domains_own_builds;
        ] );
      ( "analysis cache",
        [
          Alcotest.test_case "equal content shares one table" `Quick
            test_cache_shares_equal_content;
          Alcotest.test_case "no false sharing" `Quick
            test_cache_no_false_sharing;
          Alcotest.test_case "new sensitive site is predicted" `Quick
            test_cache_new_site_predicted;
        ] );
    ]
