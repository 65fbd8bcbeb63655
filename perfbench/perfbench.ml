(* The repository benchmark's workload runner.

   One process runs one workload serially — one campaign worker, no
   parallel analysis — and prints, as the last line of its standard
   output, one JSON object of raw samples: per-operation times in named
   series, the set-up repetitions, per-layer values (traced mode only),
   the correctness checks and the process's peak RSS.  perfbench/run.py
   turns the samples into the reported metrics; perfbench/README.md says
   why each workload exists and which layer metric should move which
   end-to-end metric.

   Every time comes from the benchmark's own monotonic clock.  Layer
   times are taken around calls into each layer's public functions from
   this file; nothing inside lib/ is instrumented for the benchmark. *)

open Faros_corpus
module Campaign = Faros_farm.Campaign
module Metrics = Faros_obs.Metrics
module Plugin = Core.Faros_plugin

(* -- clock ---------------------------------------------------------------- *)

let now () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e9
let ms s = s *. 1000.

let timed f =
  let t0 = now () in
  let v = f () in
  (v, seconds_since t0)

(* -- the sample recorder -------------------------------------------------- *)

type recorder = {
  series : (string, float list) Hashtbl.t;  (* values newest first *)
  checks : (string, bool) Hashtbl.t;  (* a check fails if any instance did *)
  laps : (string, unit) Hashtbl.t;  (* series that split a traced op *)
  mutable attempted : int;
  mutable failed : int;
  mutable info : (string * int) list;
}

let recorder () =
  {
    series = Hashtbl.create 64;
    checks = Hashtbl.create 16;
    laps = Hashtbl.create 16;
    attempted = 0;
    failed = 0;
    info = [];
  }

let add r name v =
  let prev = Option.value (Hashtbl.find_opt r.series name) ~default:[] in
  Hashtbl.replace r.series name (v :: prev)

let check r name ok =
  let prev = Option.value (Hashtbl.find_opt r.checks name) ~default:true in
  Hashtbl.replace r.checks name (prev && ok)

let info r name v = r.info <- (name, v) :: r.info

(* One checked operation: counted against the attempts, and as failed
   when its output was wrong. *)
let attempt r ~ok =
  r.attempted <- r.attempted + 1;
  if not ok then r.failed <- r.failed + 1

(* -- traced operations ---------------------------------------------------- *)

(* An operation in flight.  [lap] times one call into a layer when the
   operation is traced and is a plain call otherwise, so traced and
   untraced operations run the same code. *)
type op = {
  traced : bool;
  t0 : int64;
  minor_words0 : float;
  major_collections0 : int;
  mutable laps : (string * float) list;
}

let start ~traced =
  let minor_words0, major_collections0 =
    if traced then (Gc.minor_words (), (Gc.quick_stat ()).major_collections)
    else (0., 0)
  in
  { traced; t0 = now (); minor_words0; major_collections0; laps = [] }

let lap op name f =
  if not op.traced then f ()
  else begin
    let v, s = timed f in
    op.laps <- (name, s) :: op.laps;
    v
  end

(* Close an operation.  Untraced wall times go to [op_ms] and traced ones
   to [trace.op_ms]: the two kinds never share a series.  A traced
   operation also records each layer's summed time, the uncovered rest as
   [trace.other_ms], and its allocation and major collections. *)
let finish r op ~ok =
  let wall = seconds_since op.t0 in
  attempt r ~ok;
  if not op.traced then add r "op_ms" (ms wall)
  else begin
    let per_layer = Hashtbl.create 8 in
    List.iter
      (fun (name, s) ->
        let prev = Option.value (Hashtbl.find_opt per_layer name) ~default:0. in
        Hashtbl.replace per_layer name (prev +. s))
      op.laps;
    let covered = Hashtbl.fold (fun _ s acc -> acc +. s) per_layer 0. in
    Hashtbl.iter
      (fun name s ->
        Hashtbl.replace r.laps name ();
        add r name (ms s))
      per_layer;
    add r "trace.op_ms" (ms wall);
    add r "trace.other_ms" (ms (wall -. covered));
    add r "gc.minor_words_per_op" (Gc.minor_words () -. op.minor_words0);
    add r "gc.major_collections_per_op"
      (float ((Gc.quick_stat ()).major_collections - op.major_collections0))
  end;
  wall

(* Throughput is the median over rounds of operations per second; what a
   round is depends on the workload. *)
let round r ~ops ~seconds =
  add r "round_ops" (float ops);
  add r "round_s" seconds

(* -- workload plumbing ---------------------------------------------------- *)

(* Build the workload input repeatedly — at least [setup_min_reps] times
   and for at least [setup_min_s] — recording each repetition under
   [setup_s]; the last repetition is the input.  The reported set-up time
   is the median over a window long enough to ride out a noisy neighbour
   on a shared host; sweep1k's ~2 ms corpus build needs hundreds of
   repetitions for that. *)
let setup_min_reps = 3
let setup_min_s = 3.0

let setup r build =
  let t0 = now () in
  let rec go reps =
    let v, s = timed build in
    add r "setup_s" s;
    if reps + 1 >= setup_min_reps && seconds_since t0 >= setup_min_s then v
    else go (reps + 1)
  in
  go 0

let run_for ~seconds f =
  let t0 = now () in
  while seconds_since t0 < seconds do
    f ()
  done

(* A seeded Fisher-Yates shuffle: the seed decides submission order, and
   the same seed gives the same order. *)
let shuffle ~seed l =
  let a = Array.of_list l in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* Per-job isolation, as `Campaign.run_job` does it: every analysis
   starts from an empty provenance interner. *)
let fresh_store () =
  Faros_dift.Prov_intern.set_store (Faros_dift.Prov_intern.create_store ())

(* Start an operation from a compacted heap that holds only the workload's
   input, as a fresh `faros` process would: garbage an earlier operation
   left behind is not collected on the next operation's clock. *)
let isolate () = Gc.compact ()

let gauge metrics name = Metrics.gauge_value (Metrics.gauge metrics name)

let ratio num den = if den = 0 then 0. else float num /. float den

(* The per-layer counts of one finished FAROS replay. *)
let record_replay_layers r ~metrics ~(faros : Plugin.t)
    ~(res : Faros_replay.Replayer.result) =
  let hits = gauge metrics "vm.tbcache.hits" in
  let fp_hits = gauge metrics "dift.fastpath.hits" in
  let ticks = res.replay_ticks in
  add r "vm.guest_instrs_per_op" (float ticks);
  add r "vm.tbcache.hit_ratio"
    (ratio hits (hits + gauge metrics "vm.tbcache.misses"));
  add r "kernel.syscalls_per_op" (float res.replay_syscalls);
  add r "dift.fastpath.skip_ratio"
    (ratio fp_hits (fp_hits + gauge metrics "dift.fastpath.misses"));
  add r "dift.tainted_bytes"
    (float (Faros_dift.Engine.stats faros.engine).tainted_bytes);
  add r "dift.interned_provs"
    (float (Faros_dift.Prov_intern.store_interned_count faros.engine.interner))

(* The union of slice origins, counted as the campaign's
   [jr_slice_origins] counts it. *)
let slice_origins slices =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (s : Faros_graph.Slice.t) ->
      List.iter
        (fun (n : Faros_graph.Graph.node) -> Hashtbl.replace seen n.n_id ())
        s.sl_origins)
    slices;
  Hashtbl.length seen

(* -- sweep1k: the generated campaign corpus ------------------------------- *)

let sweep_warmup = 48

let category (s : Registry.sample) =
  Fmt.str "%a" Registry.pp_category s.category

(* Expected (flagged, clean) counts per rendered category. *)
let expected_matrix samples =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Registry.sample) ->
      let f, c =
        Option.value (Hashtbl.find_opt tbl (category s)) ~default:(0, 0)
      in
      Hashtbl.replace tbl (category s)
        (if s.expected = Registry.Expect_flag then (f + 1, c) else (f, c + 1)))
    samples;
  tbl

let matrix_matches expected (c : Campaign.t) =
  let rows = Campaign.matrix c in
  List.length rows = Hashtbl.length expected
  && List.for_all
       (fun (m : Campaign.matrix_row) ->
         Hashtbl.find_opt expected m.mr_category
         = Some (m.mr_flagged, m.mr_clean)
         && m.mr_errors = 0 && m.mr_timeouts = 0)
       rows

(* One campaign pass, as `faros campaign --corpus sweep1k -j 1` runs it.
   Each sample's time is the gap between consecutive completions seen by
   the campaign's awaiting domain, so per-job set-up and pool hand-off
   count. *)
let campaign_pass r ~expected samples =
  isolate ();
  let t0 = now () in
  let last = ref t0 in
  let c =
    Campaign.run ~workers:1
      ~on_progress:(fun ~completed:_ ~total:_ (j : Campaign.job_result) ->
        let t = now () in
        add r "op_ms" (ms (Int64.to_float (Int64.sub t !last) /. 1e9));
        last := t;
        attempt r ~ok:(not j.jr_mismatch))
      samples
  in
  let wall = seconds_since t0 in
  round r ~ops:(List.length samples) ~seconds:wall;
  check r "sweep1k: 0 mismatches" (c.mismatches = []);
  check r "sweep1k: per-category verdicts match the registry"
    (matrix_matches expected c);
  check r "sweep1k: corpus.snapshot.late_builds = 0"
    ((Snapshot.stats ()).ss_late_builds = 0);
  let job_s =
    List.fold_left (fun acc (j : Campaign.job_result) -> acc +. j.jr_wall_s) 0.
      c.results
  in
  add r "farm.pool_overhead_pct" (100. *. (wall -. job_s) /. wall)

(* The traced counterpart of one campaign job: the same calls the job
   makes, each timed from here. *)
let layered_job r (s : Registry.sample) =
  let op = start ~traced:true in
  lap op "dift.fresh_store_ms" fresh_store;
  let _kernel, trace =
    lap op "replay.record_ms" (fun () -> Scenario.record s.scenario)
  in
  let metrics = Metrics.create () in
  let builder = Faros_graph.Build.create ~metrics ~sample:s.id () in
  let faros = ref None in
  let res =
    lap op "graph.replay_ms" (fun () ->
        Scenario.replay_with s.scenario
          ~plugins:(fun kernel ->
            let p = Plugin.create ~metrics kernel in
            faros := Some p;
            [ Plugin.plugin p; Faros_graph.Build.plugin builder ~kernel ~faros:p ])
          trace)
  in
  let p = Option.get !faros in
  lap op "core.finalize_ms" (fun () -> Plugin.finalize p);
  lap op "graph.enrich_ms" (fun () -> Faros_graph.Build.enrich builder p);
  let g = Faros_graph.Build.graph builder in
  let slices = lap op "graph.slice_ms" (fun () -> Faros_graph.Slice.slices g) in
  let flagged = Core.Report.flagged (Plugin.report p) in
  let ok =
    flagged = (s.expected = Registry.Expect_flag)
    && (not res.diverged)
    && res.replay_ticks = trace.final_tick
  in
  ignore (finish r op ~ok);
  record_replay_layers r ~metrics ~faros:p ~res;
  add r "graph.nodes" (float (Faros_graph.Graph.node_count g));
  add r "graph.edges" (float (Faros_graph.Graph.edge_count g));
  add r "graph.slice_origins" (float (slice_origins slices))

let sweep1k r ~seed ~seconds ~traced =
  let samples =
    setup r (fun () ->
        Snapshot.reset_for_tests ();
        let samples, s = timed (fun () -> shuffle ~seed (Registry.sweep1k ())) in
        add r "corpus.build_ms" (ms s);
        samples)
  in
  info r "samples" (List.length samples);
  let expected = expected_matrix samples in
  (* Warm-up: a short campaign grows the heap to its working size. *)
  ignore (Campaign.run ~workers:1 (List.filteri (fun i _ -> i < sweep_warmup) samples));
  run_for ~seconds (fun () ->
      campaign_pass r ~expected samples;
      if traced then List.iter (layered_job r) samples)

(* -- netd2000: one long server replay, Table V ---------------------------- *)

let netd_clients = 2000

let netd2000 r ~seed ~seconds ~traced =
  let guilty = abs seed mod netd_clients in
  info r "clients" netd_clients;
  info r "guilty_client" guilty;
  let scn, trace =
    setup r (fun () ->
        let (scn, _schedule, _guilty), s =
          timed (fun () ->
              Servers.inject_under_load ~clients:netd_clients ~guilty
                ~worker_close:true ~arrival:(Faros_netd.Gen.Uniform 1000)
                ~name:"netd2000" ())
        in
        add r "corpus.build_ms" (ms s);
        let (_kernel, trace), s = timed (fun () -> Scenario.record scn) in
        add r "replay.record_ms" (ms s);
        (scn, trace))
  in
  info r "record_ticks" trace.final_tick;
  let faithful (res : Faros_replay.Replayer.result) =
    (not res.diverged) && res.replay_ticks = trace.final_tick
  in
  let plain r =
    isolate ();
    let res, s = timed (fun () -> Scenario.replay_plain scn trace) in
    attempt r ~ok:(faithful res);
    check r "netd2000: plain replay does not diverge" (faithful res);
    add r "replay.plain_ms" (ms s)
  in
  let faros r ~traced =
    isolate ();
    let op = start ~traced in
    lap op "dift.fresh_store_ms" fresh_store;
    let metrics = Metrics.create () in
    let faros = ref None in
    let res =
      lap op "dift.faros_replay_ms" (fun () ->
          Scenario.replay_with scn
            ~plugins:(fun kernel ->
              let p = Plugin.create ~metrics kernel in
              faros := Some p;
              [ Plugin.plugin p ])
            trace)
    in
    let p = Option.get !faros in
    lap op "core.finalize_ms" (fun () -> Plugin.finalize p);
    let flagged = Core.Report.flagged (Plugin.report p) in
    check r "netd2000: every FAROS replay flags" flagged;
    check r "netd2000: FAROS replay does not diverge, ticks = record ticks"
      (faithful res);
    let wall = finish r op ~ok:(flagged && faithful res) in
    if not traced then round r ~ops:1 ~seconds:wall
    else record_replay_layers r ~metrics ~faros:p ~res
  in
  (* Warm-up: one replay of each kind, recorded nowhere. *)
  let discard = recorder () in
  plain discard;
  faros discard ~traced:false;
  run_for ~seconds (fun () ->
      plain r;
      faros r ~traced:false;
      if traced then faros r ~traced:true)

(* -- forensics: the streaming store's query side -------------------------- *)

let forensics_warmup = 3

(* Forensic query passes last ~20 ms; a throughput round batches them so
   one round is long enough to time steadily. *)
let forensics_round_s = 0.5

let remove_tree dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let forensics r ~seed ~seconds ~traced ~work_dir =
  let dir = Filename.concat work_dir "segments" in
  (* Set-up: the core-130 campaign with segment streaming on, one .jsonl
     per sample, as `faros campaign --graph-out DIR` writes them. *)
  let expected_origins =
    setup r (fun () ->
        remove_tree dir;
        Sys.mkdir dir 0o755;
        Snapshot.reset_for_tests ();
        let samples, s = timed (fun () -> shuffle ~seed (Registry.all ())) in
        add r "corpus.build_ms" (ms s);
        let c = Campaign.run ~workers:1 ~graph_segments:true samples in
        check r "forensics: set-up campaign has 0 mismatches" (Campaign.ok c);
        let expected = Hashtbl.create 256 in
        let rows = ref 0 in
        List.iter
          (fun (j : Campaign.job_result) ->
            Hashtbl.replace expected j.jr_id j.jr_slice_origins;
            rows := !rows + List.length j.jr_segments;
            Out_channel.with_open_bin
              (Filename.concat dir (j.jr_id ^ ".jsonl"))
              (fun oc ->
                List.iter
                  (fun line ->
                    output_string oc line;
                    output_char oc '\n')
                  j.jr_segments))
          c.results;
        add r "segment.rows" (float !rows);
        expected)
  in
  let runs = Hashtbl.length expected_origins in
  info r "runs" runs;
  let pass r ~traced =
    let op = start ~traced in
    let ok =
      match lap op "store.load_ms" (fun () -> Faros_query.Store.load ~dir) with
      | Error _ -> false
      | Ok st ->
        let t = Faros_query.Store.totals st in
        let complete = t.t_runs = runs && t.t_complete = runs && t.t_dups = 0 in
        check r "forensics: store has every run complete, 0 duplicates" complete;
        let slices_ok =
          List.for_all
            (fun run ->
              match
                lap op "store.run_graph_ms" (fun () ->
                    Faros_query.Store.run_graph st run)
              with
              | Error _ -> false
              | Ok g ->
                let slices =
                  lap op "store.slice_ms" (fun () -> Faros_graph.Slice.slices g)
                in
                Hashtbl.find_opt expected_origins run
                = Some (slice_origins slices))
            (Faros_query.Store.runs st)
        in
        check r "forensics: per-run slice origins = campaign jr_slice_origins"
          slices_ok;
        let nonempty = function Ok (_ :: _) -> true | Ok [] | Error _ -> false in
        let origins_ok =
          nonempty
            (lap op "store.origins_ms" (fun () -> Faros_query.Store.origins st))
        in
        let flows_ok =
          nonempty
            (lap op "store.flows_ms" (fun () ->
                 Faros_query.Store.flows st ~spec:"->"))
        in
        let merged_ok =
          match
            lap op "store.merged_ms" (fun () -> Faros_query.Store.merged_graph st)
          with
          | Ok g -> Faros_graph.Graph.node_count g > 0
          | Error _ -> false
        in
        if traced then add r "store.rows" (float t.t_rows);
        complete && slices_ok && origins_ok && flows_ok && merged_ok
    in
    check r "forensics: every query pass succeeds" ok;
    finish r op ~ok
  in
  let discard = recorder () in
  for _ = 1 to forensics_warmup do
    ignore (pass discard ~traced:false)
  done;
  let batch_ops = ref 0 and batch_s = ref 0. in
  run_for ~seconds (fun () ->
      let wall = pass r ~traced:false in
      incr batch_ops;
      batch_s := !batch_s +. wall;
      if !batch_s >= forensics_round_s then begin
        round r ~ops:!batch_ops ~seconds:!batch_s;
        batch_ops := 0;
        batch_s := 0.
      end;
      if traced then ignore (pass r ~traced:true))

(* -- output --------------------------------------------------------------- *)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> 0.
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
        | Some _ -> find ()
      in
      find ())

let to_json r =
  let str s = "\"" ^ Faros_obs.Json.escape s ^ "\"" in
  let obj fields =
    "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"
  in
  let num v = Printf.sprintf "%.17g" v in
  let sorted tbl =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  obj
       [
         ("ocaml", str Sys.ocaml_version);
         ("attempted", string_of_int r.attempted);
         ("failed", string_of_int r.failed);
         ("peak_rss_mb", num (peak_rss_mb ()));
         ( "checks",
           obj (List.map (fun (k, ok) -> (k, string_of_bool ok)) (sorted r.checks))
         );
         ( "laps",
           "[" ^ String.concat "," (List.map (fun (k, ()) -> str k) (sorted r.laps)) ^ "]" );
         ("info", obj (List.rev_map (fun (k, v) -> (k, string_of_int v)) r.info));
         ( "series",
           obj
             (List.map
                (fun (k, vs) ->
                  (k, "[" ^ String.concat "," (List.rev_map num vs) ^ "]"))
                (sorted r.series)) );
       ]

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.
  and traced = ref false and work_dir = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME sweep1k | netd2000 | forensics");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Int (fun t -> traced := t <> 0), "0|1 per-layer run");
      ("--work-dir", Arg.Set_string work_dir, "DIR working space for files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR";
  let r = recorder () in
  let seed = !seed and seconds = !seconds and traced = !traced in
  (match !workload with
  | "sweep1k" -> sweep1k r ~seed ~seconds ~traced
  | "netd2000" -> netd2000 r ~seed ~seconds ~traced
  | "forensics" when !work_dir <> "" ->
    forensics r ~seed ~seconds ~traced ~work_dir:!work_dir
  | w ->
    prerr_endline ("perfbench: unknown workload or missing --work-dir: " ^ w);
    exit 2);
  print_endline (to_json r)
