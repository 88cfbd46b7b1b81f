(* The repository's benchmark: three workloads timed end to end, with a
   per-layer breakdown from spans around the calls into each layer.

     bench.exe --workload survey|netperf-fire|daemon-mixed --seed N
               --seconds S --trace 0|1 [--planner EXE] [--out DIR]

   The last line of stdout is one JSON object: correct, attempted,
   failed, and the end-to-end metrics (--trace 0) or the per-layer
   metrics (--trace 1).  Progress and failed checks go to stderr.

   The work is a pure function of (workload, seed, seconds): planner
   searches stop on node budgets (their wall-clock budget is out of
   reach), there is no root budget, gadget ids are request-local and
   daemon checkpoints are count-triggered.  [--seconds] sets how much
   work the timed phase does, calibrated so that it lasts about that
   long on the reference host (README.md); every count then repeats
   exactly and only the seconds are noisy. *)

open Gp_core
module Img = Gp_util.Image
module Sv = Gp_harness.Serve

let span = Trace.span
let now = Unix.gettimeofday

(* ----- command line ----- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 20.
let trace = ref 0
let planner_exe = ref "_build/default/bin/gadget_planner.exe"
let out_dir = ref "perfbench/out"

let usage =
  "bench.exe --workload survey|netperf-fire|daemon-mixed --seed N --seconds S \
   --trace 0|1 [--planner EXE] [--out DIR]"

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S size of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 record spans, report per-layer metrics");
      ("--planner", Arg.Set_string planner_exe, "EXE gadget_planner executable");
      ("--out", Arg.Set_string out_dir, "DIR trace and daemon files") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("[bench] " ^ s)) fmt

(* ----- fixed inputs ----- *)

let grid = Gp_corpus.Programs.all @ Gp_corpus.Spec.all
let configs = Gp_harness.Workspace.obf_configs   (* original, llvm-obf, tigress *)
let goals = Goal.default_goals                   (* execve, mprotect, mmap *)

(* Searches are bounded by expanded nodes only; the seconds budget is
   out of reach so host load cannot change how much work a run does. *)
let node_budget = 2500
let no_deadline = 1e9

let planner_config ~quota =
  { Planner.max_plans = quota;
    node_budget;
    time_budget = no_deadline;
    branch_cap = 10;
    goal_cap = 6;
    max_steps = 14 }

let validate_fuel = 1_000_000    (* what Api gives validation without a budget *)
let probe_fuel = 10_000_000
let fire_fuel = 20_000_000
let emu_fuel = 200_000           (* per image, for emu.steps_per_s *)

(* ----- what a run accumulates ----- *)

let attempted = ref 0
let failed = ref 0
let correct = ref true
let latencies = ref []          (* seconds, one per operation *)
let timed_t0 = ref 0.
let timed_wall = ref 0.
let setup_times = ref []
let chains_validated = ref 0
let peak_rss_kb = ref 0
let steps_per_s = ref 0.
let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let count k v =
  Hashtbl.replace counters k
    (v +. Option.value (Hashtbl.find_opt counters k) ~default:0.)

let counti k n = count k (float_of_int n)
let counter k = Option.value (Hashtbl.find_opt counters k) ~default:0.

(* A failed check: reported on stderr, and false so callers can fold. *)
let check_failed fmt =
  Printf.ksprintf (fun s -> prerr_endline ("[bench] CHECK FAILED: " ^ s); false) fmt

(* A global check the whole run depends on (not one operation's output). *)
let global_check ok what = if not ok then correct := check_failed "%s" what

let vm_hwm_kb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
      | _ -> scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* Run [f] once per set-up pass, timing each; the last pass's value is
   the one the run uses, setup_s is the median.  [discard] releases an
   earlier pass's value, outside the timing.  Five passes, or three for
   the daemon, whose pass (start, warm-up) costs seconds. *)
let setup ?(reps = 5) ?(discard = ignore) f =
  let rec go k last =
    if k = 0 then Option.get last
    else begin
      Option.iter discard last;
      let t0 = now () in
      let v = f () in
      setup_times := (now () -. t0) :: !setup_times;
      go (k - 1) (Some v)
    end
  in
  go reps None

(* One timed operation: latency recorded, spans tagged with its index. *)
let operation name f =
  incr attempted;
  let req = !attempted in
  let t0 = now () in
  let v = span ~req "bench" name f in
  latencies := (now () -. t0) :: !latencies;
  v

let timed_cpu = ref 0.

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let timed_phase f =
  let c0 = cpu_seconds () in
  timed_t0 := now ();
  let v = f () in
  timed_wall := now () -. !timed_t0;
  timed_cpu := cpu_seconds () -. c0;
  v

(* Empty every process-global cache the pipeline keeps, so the timed
   phase starts as a fresh process would. *)
let reset_world () =
  Gadget.reset_ids ();
  Gp_smt.Term.reset_memo ();
  Gp_smt.Cache.reset Gp_smt.Solver.memo;
  Gp_smt.Cache.reset Gp_smt.Solver.equal_memo;
  Gp_smt.Cache.reset Gp_smt.Solver.pool_memo;
  Gp_smt.Solver.reset_screen ();
  Gp_smt.Fpeval.reset ();
  Incr.reset ()

(* ----- calls into the layers ----- *)

let compile ?(cfg = Gp_obf.Obf.none) (e : Gp_corpus.Programs.entry) =
  let transform p = span "obf" e.name (fun () -> Gp_obf.Obf.transform cfg p) in
  let image =
    span "compile" e.name (fun () ->
        Gp_codegen.Pipeline.compile ~transform e.source)
  in
  count "compile.code_kb" (float_of_int (Img.code_size image) /. 1024.);
  image

let census name image =
  let n =
    span "census" name (fun () ->
        List.fold_left (fun acc (_, n) -> acc + n) 0 (Extract.raw_counts image))
  in
  counti "census.gadgets" n;
  n

let analyse name image =
  let ex =
    span "extract" name (fun () ->
        Api.stage_extract ~jobs:1 ~ids:(Gadget.local_ids ()) image)
  in
  let a, _ = span "subsume" name (fun () -> Api.stage_subsume ~jobs:1 ex) in
  counti "extract.harvested" a.Api.raw_extracted;
  counti "extract.summary_hits" a.Api.analysis_summary_hits;
  counti "extract.summary_misses" a.Api.analysis_summary_misses;
  counti "extract.substitutions" a.Api.analysis_substitutions;
  counti "extract.decode_saved" a.Api.analysis_decode_saved;
  counti "subsume.pool" (List.length a.Api.gadgets);
  counti "subsume.unknowns" a.Api.analysis_unknowns;
  counti "subsume.memo_hits" a.Api.analysis_cache_hits;
  counti "subsume.memo_misses" a.Api.analysis_cache_misses;
  (let _, _, fp_refuted = a.Api.analysis_fp in
   counti "subsume.fp_refuted" fp_refuted);
  (let screen_refuted, _, _, _ = a.Api.analysis_screen in
   counti "subsume.screen_refuted" screen_refuted);
  global_check
    (List.length a.Api.gadgets <= a.Api.raw_extracted)
    (Printf.sprintf "%s: subsumed pool %d larger than the harvest %d" name
       (List.length a.Api.gadgets) a.Api.raw_extracted);
  a

let plan ~quota name (a : Api.analysis) goal =
  let p =
    span "plan" name (fun () ->
        Api.stage_plan ~planner_config:(planner_config ~quota) ~jobs:1 a goal)
  in
  let o = span "finalize" name (fun () -> Api.stage_finalize p) in
  let st = o.Api.stats in
  counti "plan.expanded" st.Api.plan_expanded;
  counti "plan.plans_found" st.Api.plans_found;
  counti "plan.discarded" st.Api.plan_discarded;
  counti "plan.unknowns" (st.Api.solver_unknowns - a.Api.analysis_unknowns);
  counti "plan.memo_hits" (st.Api.cache_hits - a.Api.analysis_cache_hits);
  counti "plan.memo_misses" (st.Api.cache_misses - a.Api.analysis_cache_misses);
  if List.mem "plan" st.Api.budget_hits then counti "plan.budget_hits" 1;
  chains_validated := !chains_validated + List.length o.Api.chains;
  o

(* The image bytes at the gadget's address, decoded here rather than by
   the harvest, must give the gadget's recorded instructions.  A
   recorded path may follow a direct jump, call or either side of a
   conditional branch. *)
let decodes_as (image : Img.t) (g : Gadget.t) =
  let code = image.Img.code in
  let rec walk pos = function
    | [] -> true
    | want :: rest -> (
      pos >= 0 && pos < Bytes.length code
      &&
      match Gp_x86.Decode.decode code pos with
      | Some (insn, len) when insn = want ->
        let next = pos + len in
        let succs =
          match insn with
          | Gp_x86.Insn.Jmp rel | Gp_x86.Insn.Jcc (_, rel) | Gp_x86.Insn.Call rel
            -> [ next; next + rel ]
          | _ -> [ next ]
        in
        List.exists (fun p -> walk p rest) succs
      | _ -> false)
  in
  walk (Int64.to_int (Int64.sub g.Gadget.addr image.Img.code_base)) g.Gadget.insns

(* Output checks on one returned chain: it reaches its goal when re-run
   on a fresh machine, and every step decodes to its gadget. *)
let chain_ok name image (c : Payload.chain) =
  let out =
    span "validate" name (fun () ->
        Payload.validate_run ~fuel:validate_fuel image c)
  in
  counti "validate.chains" 1;
  let reached =
    Goal.satisfied c.Payload.c_goal out
    || check_failed "%s: chain does not reach %s when re-run" name
         (Goal.name c.Payload.c_goal.Goal.goal)
  in
  let decoded =
    List.for_all
      (fun (s : Plan.step) ->
        decodes_as image s.Plan.gadget
        || check_failed "%s: gadget at 0x%Lx does not decode to its instructions"
             name s.Plan.gadget.Gadget.addr)
      c.Payload.c_steps
  in
  reached && decoded

let note_failed ok = if not ok then incr failed

(* Steps per second of plain runs of the compiled images (traced runs
   only; outside every timed phase). *)
let measure_emu images =
  let steps = ref 0 and secs = ref 0. in
  List.iter
    (fun (name, image) ->
      let t0 = now () in
      let _, m =
        span "emu" name (fun () -> Gp_emu.Machine.run_image ~fuel:emu_fuel image)
      in
      secs := !secs +. (now () -. t0);
      steps := !steps + m.Gp_emu.Machine.steps)
    images;
  if !secs > 0. then steps_per_s := float_of_int !steps /. !secs

(* ----- survey ----- *)

(* The grid prefix the timed phase covers: one program per second of
   --seconds, the whole grid (20 programs x 3 configs x 3 goals) at 20. *)
let survey_programs () =
  let n = max 1 (min (List.length grid) (int_of_float (Float.ceil !seconds))) in
  List.filteri (fun i _ -> i < n) grid

let survey_quota = 2

let survey () =
  let programs = survey_programs () in
  let cells =
    setup (fun () ->
        List.concat_map
          (fun (e : Gp_corpus.Programs.entry) ->
            List.map
              (fun (cname, cfg) ->
                let image = compile ~cfg e in
                (e.name, cname, image, census e.name image))
              configs)
          programs)
  in
  (* Table I: obfuscation adds gadgets to every program *)
  List.iter
    (fun (e : Gp_corpus.Programs.entry) ->
      let total c =
        List.find_map
          (fun (p, cn, _, n) -> if p = e.name && cn = c then Some n else None)
          cells
        |> Option.get
      in
      List.iter
        (fun (c, _) ->
          if c <> "original" then
            global_check
              (total c > total "original")
              (Printf.sprintf "%s: %s census %d not above the original's %d"
                 e.name c (total c) (total "original")))
        configs)
    programs;
  reset_world ();
  let results =
    timed_phase (fun () ->
        List.concat_map
          (fun (prog, cname, image, _) ->
            let name = prog ^ "/" ^ cname in
            let analysis = ref None in
            List.map
              (fun goal ->
                let o =
                  operation name (fun () ->
                      let a =
                        match !analysis with
                        | Some a -> a
                        | None ->
                          let a = analyse name image in
                          analysis := Some a;
                          a
                      in
                      plan ~quota:survey_quota name a goal)
                in
                (name, image, o))
              goals)
          cells)
  in
  peak_rss_kb := vm_hwm_kb "self";
  List.iter
    (fun (name, image, (o : Api.outcome)) ->
      note_failed (List.for_all (chain_ok name image) o.Api.chains))
    results;
  if !trace = 1 then
    measure_emu (List.map (fun (p, c, image, _) -> (p ^ "/" ^ c, image)) cells)

(* ----- netperf-fire ----- *)

(* Chains planned per config.  A delivery runs the program from its
   entry: on the reference host most take 30-140 ms, but the 10th and
   later llvm-obf chains take ~0.6 s and the 3rd and later tigress ones
   ~4 s.  These quotas keep such slow deliveries at 4 of 105, so the p90
   falls in the dense band of fast ones (README.md). *)
let netperf_quotas () =
  let q base = max 1 (int_of_float (Float.round (base *. !seconds /. 20.))) in
  [ ("original", q 90.); ("llvm-obf", q 12.); ("tigress", q 3.) ]

let netperf_goal = Goal.Execve "/bin/sh"

let netperf () =
  let quotas = netperf_quotas () in
  let entry = Gp_corpus.Netperf.entry in
  let targets =
    setup (fun () ->
        List.map
          (fun (cname, cfg) ->
            let image = compile ~cfg entry in
            let probe =
              span "probe" cname (fun () ->
                  Gp_harness.Netperf_attack.probe ~fuel:probe_fuel image)
            in
            (cname, image, probe))
          configs)
  in
  let targets =
    List.filter_map
      (fun (cname, image, probe) ->
        match probe with
        | None ->
          global_check false (cname ^ ": the break_args overflow was not found");
          None
        | Some (pr : Gp_harness.Netperf_attack.probe) ->
          let in_stack =
            pr.ret_cell >= Gp_emu.Machine.stack_base
            && pr.ret_cell
               < Int64.add Gp_emu.Machine.stack_base
                   (Int64.of_int Gp_emu.Machine.stack_size)
          in
          global_check
            (in_stack && pr.filler_words >= 4)
            (Printf.sprintf "%s: probed return cell 0x%Lx after %d filler words"
               cname pr.ret_cell pr.filler_words);
          Some (cname, image, pr))
      targets
  in
  reset_world ();
  let delivered =
    timed_phase (fun () ->
        List.concat_map
          (fun (cname, image, (pr : Gp_harness.Netperf_attack.probe)) ->
            let name = "netperf/" ^ cname in
            let a = analyse name image in
            Layout.set_payload_base pr.ret_cell;
            let o =
              Fun.protect ~finally:Layout.reset (fun () ->
                  plan ~quota:(List.assoc cname quotas) name a netperf_goal)
            in
            List.map
              (fun (c : Payload.chain) ->
                let out =
                  operation name (fun () ->
                      span "fire" name (fun () ->
                          Gp_harness.Netperf_attack.fire_run ~fuel:fire_fuel
                            image pr c))
                in
                counti "fire.deliveries" 1;
                (name, image, pr, c, Goal.satisfied c.Payload.c_goal out))
              o.Api.chains)
          targets)
  in
  peak_rss_kb := vm_hwm_kb "self";
  List.iter
    (fun (name, image, (pr : Gp_harness.Netperf_attack.probe), c, fired) ->
      let fired = fired || check_failed "%s: delivery did not reach the goal" name in
      Layout.set_payload_base pr.ret_cell;
      let ok = Fun.protect ~finally:Layout.reset (fun () -> chain_ok name image c) in
      note_failed (fired && ok))
    delivered;
  if !trace = 1 then
    measure_emu (List.map (fun (c, image, _) -> ("netperf/" ^ c, image)) targets)

(* ----- daemon-mixed ----- *)

(* The warm set: these programs under every config and goal, each
   request served once in set-up.  The timed phase is made of rounds:
   every warm request once, in an order drawn from the workload seed,
   plus one request carrying an image the daemon has not seen -- a
   warm-set program re-obfuscated under an obfuscation seed drawn from
   the workload seed.  One request in 19 is unseen, so the p90 stays in
   the warm population, where the composition is fixed. *)
let warm_programs = [ "fibonacci"; "gcd_lcm" ]
let daemon_quota = 2
let checkpoint_every = 10

(* sixteen rounds at --seconds 20 *)
let daemon_rounds () = max 1 (int_of_float (Float.round (!seconds /. 1.25)))

let request image goal =
  { (Sv.default_request image) with
    Sv.rq_goal = Goal.name goal;
    rq_budget_s = 0.;
    rq_max_plans = daemon_quota;
    rq_node_budget = node_budget;
    rq_time_budget = no_deadline;
    rq_branch_cap = 10;
    rq_goal_cap = 6;
    rq_max_steps = 14;
    rq_jobs = 1 }

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec dir_bytes path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc f -> acc + dir_bytes (Filename.concat path f))
      0 (Sys.readdir path)
  else (Unix.stat path).Unix.st_size

type daemon = { pid : int; client : Sv.Client.t; dir : string }

(* A daemon left running when the benchmark dies is killed on exit. *)
let live_daemons = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_daemons)

let start_daemon tag =
  let dir = Filename.concat !out_dir (Printf.sprintf "daemon-%d-%s" (Unix.getpid ()) tag) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "sock" in
  let logf =
    Unix.openfile (Filename.concat dir "log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process !planner_exe
      [| !planner_exe; "serve"; "--socket"; socket;
         "--cache-dir"; Filename.concat dir "cache"; "--jobs"; "1";
         "--checkpoint-every"; string_of_int checkpoint_every;
         "--checkpoint-secs"; Printf.sprintf "%.0f" no_deadline |]
      Unix.stdin logf logf
  in
  Unix.close logf;
  live_daemons := pid :: !live_daemons;
  let deadline = now () +. 60. in
  let rec connect () =
    match Sv.Client.connect socket with
    | Ok c -> c
    | Error why ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _ -> failwith ("daemon exited before listening: " ^ why));
      if now () > deadline then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        failwith ("daemon did not start listening: " ^ why)
      end;
      Unix.sleepf 0.01;
      connect ()
  in
  { pid; client = connect (); dir }

(* Shut down, wait for the process, and return the drain-and-compact
   round trip in seconds. *)
let stop_daemon d =
  let t0 = now () in
  let ok = match Sv.Client.shutdown d.client with Ok () -> true | Error _ -> false in
  Sv.Client.close d.client;
  if not ok then Unix.kill d.pid Sys.sigkill;
  (match Unix.waitpid [] d.pid with
   | _, Unix.WEXITED 0 -> ()
   | _ -> global_check false "daemon did not exit cleanly");
  live_daemons := List.filter (( <> ) d.pid) !live_daemons;
  now () -. t0

let submit d rq =
  match span "serve" "submit" (fun () -> Sv.Client.submit d.client rq) with
  | Ok rep -> Some rep
  | Error f ->
    ignore (check_failed "submit: %s" (Fail.to_string f));
    None

let daemon_mixed () =
  let rounds = daemon_rounds () in
  let entries = List.map Gp_corpus.Programs.find warm_programs in
  let obf_rng = Random.State.make [| !seed |] in
  let unseen_cfgs =
    List.init rounds (fun k ->
        let e = List.nth entries (k mod List.length entries) in
        ( e,
          Gp_obf.Obf.config
            ~seed:(2 + Random.State.int obf_rng 1_000_000)
            [ Gp_obf.Obf.Substitution ],
          List.nth goals (k mod List.length goals) ))
  in
  let prepare () =
    let warm =
      List.concat_map
        (fun e ->
          List.concat_map
            (fun (_, cfg) ->
              let image = compile ~cfg e in
              List.map (fun g -> request image g) goals)
            configs)
        entries
      |> Array.of_list
    in
    let unseen =
      List.map (fun (e, cfg, g) -> request (compile ~cfg e) g) unseen_cfgs
      |> Array.of_list
    in
    (warm, unseen)
  in
  (* every set-up pass starts a fresh daemon and warms it; all but the
     last are shut down again *)
  let warm, unseen, d =
    setup ~reps:3
      ~discard:(fun (_, _, d) ->
        ignore (stop_daemon d);
        rm_rf d.dir)
      (fun () ->
        let warm, unseen = prepare () in
        let d = start_daemon (string_of_int (List.length !setup_times)) in
        Array.iter (fun rq -> ignore (submit d rq)) warm;
        (warm, unseen, d))
  in
  (* a warm request's first repeat after its cold pass still costs more
     than later ones; one untimed round takes that out of the timing *)
  Array.iter (fun rq -> ignore (submit d rq)) warm;
  let order_rng = Random.State.make [| !seed; 1 |] in
  let shuffled () =
    let a = Array.copy warm in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int order_rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  let schedule =
    List.concat
      (List.init rounds (fun r ->
           let w = shuffled () in
           let half = List.length w / 2 in
           List.filteri (fun i _ -> i < half) w
           @ (unseen.(r) :: List.filteri (fun i _ -> i >= half) w)))
    |> Array.of_list
  in
  let first_unseen = Array.length warm / 2 in
  let replies =
    timed_phase (fun () ->
        Array.map
          (fun rq -> (rq, operation "submit" (fun () -> submit d rq)))
          schedule)
  in
  (match Sv.Client.stats d.client with
   | Ok st ->
     counti "daemon.incr_entries" st.Sv.ds_incr_size;
     counti "daemon.memo_entries" st.Sv.ds_memo_entries;
     counti "store.checkpoints" st.Sv.ds_checkpoints
   | Error f -> global_check false ("daemon stats: " ^ Fail.to_string f));
  peak_rss_kb := vm_hwm_kb (string_of_int d.pid);
  count "store.shutdown_s" (stop_daemon d);
  counti "store.bytes" (dir_bytes (Filename.concat d.dir "cache"));
  rm_rf d.dir;
  Array.iter
    (fun (rq, rep) ->
      counti "serve.request_bytes" (String.length (Sv.request_encode rq));
      match rep with
      | None -> incr failed
      | Some rep ->
        counti "serve.report_bytes" (String.length (Sv.report_encode rep));
        chains_validated := !chains_validated + List.length rep.Sv.sr_chains)
    replies;
  (* the daemon's replies equal the same request run here: one warm
     request and the first unseen one *)
  List.iter
    (fun i ->
      match replies.(i) with
      | rq, Some rep ->
        let here = span "check" "handle" (fun () -> Sv.handle rq) in
        note_failed
          (Sv.report_encode here = Sv.report_encode rep
          || check_failed "request %d: daemon report differs from Serve.handle" i)
      | _, None -> ())
    [ 0; first_unseen ];
  if !trace = 1 then
    measure_emu
      (Array.to_list
         (Array.mapi (fun i rq -> (Printf.sprintf "warm/%d" i, rq.Sv.rq_image)) warm))

(* ----- report ----- *)

let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let h = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.of_int (truncate h)) in
    let f = h -. float_of_int i in
    if i + 1 < n then a.(i) +. (f *. (a.(i + 1) -. a.(i))) else a.(i)

let ratio hits misses =
  let h = counter hits and m = counter misses in
  if h +. m > 0. then h /. (h +. m) else 0.

let requests_per_s () =
  if !timed_wall > 0. then float_of_int (!attempted - !failed) /. !timed_wall else 0.

let end_to_end () =
  [ ("setup_s", "s", quantile 0.5 !setup_times);
    ("requests_per_s", "req/s", requests_per_s ());
    ("latency_p50_ms", "ms", 1000. *. quantile 0.5 !latencies);
    ("latency_p90_ms", "ms", 1000. *. quantile 0.9 !latencies);
    ("chains_validated", "count", float_of_int !chains_validated);
    ("peak_rss_mb", "MB", float_of_int !peak_rss_kb /. 1024.) ]

let per_layer () =
  let lo = !timed_t0 and hi = !timed_t0 +. !timed_wall in
  let passes = float_of_int (List.length !setup_times) in
  let per_setup layer = Trace.busy layer /. passes in
  let timed layer = Trace.busy ~lo ~hi layer in
  let gc = Gc.quick_stat () in
  let attributed =
    List.fold_left
      (fun acc (r : Trace.layer_row) ->
        if r.Trace.l_layer = "bench" then acc else acc +. r.Trace.l_self)
      0. (Trace.layers ~lo ~hi ())
  in
  [ ("compile.busy_s", "s", per_setup "compile");
    ("obf.busy_s", "s", per_setup "obf");
    ("compile.code_kb", "KiB", counter "compile.code_kb" /. passes);
    ("census.busy_s", "s", per_setup "census");
    ("census.gadgets", "count", counter "census.gadgets" /. passes);
    ("probe.busy_s", "s", per_setup "probe");
    ("extract.busy_s", "s", timed "extract");
    ("extract.harvested", "count", counter "extract.harvested");
    ("extract.summary_hits", "count", counter "extract.summary_hits");
    ("extract.summary_misses", "count", counter "extract.summary_misses");
    ("extract.substitutions", "count", counter "extract.substitutions");
    ("extract.decode_saved", "count", counter "extract.decode_saved");
    ("subsume.busy_s", "s", timed "subsume");
    ("subsume.pool", "count", counter "subsume.pool");
    ("subsume.unknowns", "count", counter "subsume.unknowns");
    ("subsume.memo_hit_ratio", "ratio", ratio "subsume.memo_hits" "subsume.memo_misses");
    ("subsume.fp_refuted", "count", counter "subsume.fp_refuted");
    ("subsume.screen_refuted", "count", counter "subsume.screen_refuted");
    ("plan.busy_s", "s", timed "plan");
    ("plan.expanded", "count", counter "plan.expanded");
    ("plan.plans_found", "count", counter "plan.plans_found");
    ("plan.discarded", "count", counter "plan.discarded");
    ("plan.unknowns", "count", counter "plan.unknowns");
    ("plan.memo_hit_ratio", "ratio", ratio "plan.memo_hits" "plan.memo_misses");
    ("plan.budget_hits", "count", counter "plan.budget_hits");
    ("finalize.busy_s", "s", timed "finalize");
    ("validate.busy_s", "s", Trace.busy "validate");
    ("validate.chains", "count", counter "validate.chains");
    ("emu.steps_per_s", "1/s", !steps_per_s);
    ("fire.busy_s", "s", timed "fire");
    ("fire.deliveries", "count", counter "fire.deliveries");
    ("serve.submit_s", "s", timed "serve");
    ("serve.request_bytes", "B", counter "serve.request_bytes");
    ("serve.report_bytes", "B", counter "serve.report_bytes");
    ("daemon.incr_entries", "count", counter "daemon.incr_entries");
    ("daemon.memo_entries", "count", counter "daemon.memo_entries");
    ("store.checkpoints", "count", counter "store.checkpoints");
    ("store.bytes", "B", counter "store.bytes");
    ("store.shutdown_s", "s", counter "store.shutdown_s");
    ("gc.major_collections", "count", float_of_int gc.Gc.major_collections);
    ("gc.top_heap_mb", "MB",
     float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
    ("trace.requests_per_s", "req/s", requests_per_s ());
    ("trace.attributed_share", "ratio",
     if !timed_wall > 0. then attributed /. !timed_wall else 0.) ]

let write_layer_table path =
  let lo = !timed_t0 and hi = !timed_t0 +. !timed_wall in
  let oc = open_out path in
  let both f =
    f stderr;
    f oc
  in
  both (fun c ->
      Printf.fprintf c "%s seed %d: timed phase %.3f s, %d operations\n"
        !workload !seed !timed_wall !attempted;
      Printf.fprintf c "  %-10s %7s %10s %10s %7s\n" "layer" "spans" "busy_s"
        "self_s" "self%";
      List.iter
        (fun (r : Trace.layer_row) ->
          Printf.fprintf c "  %-10s %7d %10.4f %10.4f %6.1f%%\n" r.Trace.l_layer
            r.Trace.l_spans r.Trace.l_busy r.Trace.l_self
            (100. *. r.Trace.l_self /. Float.max 1e-9 !timed_wall))
        (Trace.layers ~lo ~hi ()));
  close_out oc

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result metrics =
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    !correct !attempted !failed (String.concat ", " fields)

let () =
  let run =
    match !workload with
    | "survey" -> survey
    | "netperf-fire" -> netperf
    | "daemon-mixed" -> daemon_mixed
    | w ->
      prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline usage;
    exit 2
  end;
  (try Unix.mkdir !out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Trace.on := !trace = 1;
  run ();
  log "%s seed %d: setup %.3f s, %d operations in %.3f s (%.3f s cpu), %d failed"
    !workload !seed (quantile 0.5 !setup_times) !attempted !timed_wall !timed_cpu
    !failed;
  if !trace = 1 then begin
    let stem = Filename.concat !out_dir (Printf.sprintf "%s-seed%d" !workload !seed) in
    Trace.write_chrome (stem ^ ".trace.json");
    write_layer_table (stem ^ ".layers.txt");
    print_result (per_layer ())
  end
  else print_result (end_to_end ())
