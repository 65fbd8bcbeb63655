(* Post-analysis provenance queries.

   The report answers "was there an injection"; these helpers answer the
   analyst's follow-ups: where is tainted data sitting right now, in which
   processes, carrying which tag types — the "visibility into how
   information flows in a live system" the paper sells DIFT for. *)

type region_taint = {
  rt_pid : Faros_os.Types.pid;
  rt_process : string;
  rt_vaddr : int;  (* start of the contiguous tainted run *)
  rt_len : int;
  rt_types : Faros_dift.Tag.ty list;  (* union over the run *)
  rt_sample : Faros_dift.Provenance.t;  (* provenance of the first byte *)
}

let ty_name = function
  | Faros_dift.Tag.Ty_netflow -> "netflow"
  | Ty_process -> "process"
  | Ty_file -> "file"
  | Ty_export -> "export-table"

(* Coalesce contiguous tainted bytes of [ranges] (virtual, in [asid])
   into regions.  Per mapped page: one translation, then the shadow
   page's runs of equal ids ({!Faros_dift.Shadow.iter_page_runs}),
   clipped to the range.  A run that starts (virtually) where the open
   region ends extends it, whatever the physical frames; any other run
   closes it, and so does the end of each range.  Types accumulate as
   the interner's cached type masks, converted to a list once per
   region; the sample is the provenance of the region's first byte.
   Cost: O(mapped pages + tainted runs), independent of mapped bytes. *)
let regions ~mmu ~asid ~shadow ~pid ~process ranges =
  (* one translation per page: MMU frames and shadow pages coincide *)
  let page_size = Faros_vm.Mmu.page_size in
  assert (page_size = Faros_dift.Shadow.page_size);
  let acc = ref [] in
  let start = ref 0 and len = ref 0 and mask = ref 0 in
  let sample = ref Faros_dift.Provenance.empty in
  let flush () =
    if !len > 0 then
      acc :=
        {
          rt_pid = pid;
          rt_process = process;
          rt_vaddr = !start;
          rt_len = !len;
          rt_types = Faros_dift.Prov_intern.types_of_mask !mask;
          rt_sample = !sample;
        }
        :: !acc;
    len := 0
  in
  List.iter
    (fun (vaddr, size) ->
      let stop = vaddr + size in
      let page = ref (vaddr land lnot (page_size - 1)) in
      while !page < stop do
        let va = !page in
        (* the part of this page inside the range *)
        let lo = max vaddr va and hi = min stop (va + page_size) in
        let paddr = Faros_vm.Mmu.translate mmu ~asid va in
        Faros_dift.Shadow.iter_page_runs shadow paddr (fun off n prov ->
            let a = max lo (va + off) and b = min hi (va + off + n) in
            if a < b then begin
              if !len = 0 || !start + !len <> a then begin
                flush ();
                start := a;
                mask := 0;
                sample := prov
              end;
              len := !len + (b - a);
              mask := !mask lor Faros_dift.Prov_intern.type_mask prov
            end);
        page := va + page_size
      done;
      flush ())
    ranges;
  List.rev !acc

let regions_of_process (faros : Faros_plugin.t) (p : Faros_os.Process.t) =
  regions ~mmu:faros.kernel.machine.mmu ~asid:(Faros_os.Process.asid p)
    ~shadow:faros.engine.shadow ~pid:p.pid ~process:p.proc_name
    (Faros_vm.Mmu.mapped_ranges p.space
    |> List.filter (fun (vaddr, _) -> vaddr < Faros_os.Export_table.kernel_base))

let tainted_regions (faros : Faros_plugin.t) =
  List.concat_map (regions_of_process faros) (Faros_os.Kstate.processes faros.kernel)

let taint_totals regions =
  List.fold_left
    (fun (total, netflow) r ->
      ( total + r.rt_len,
        if List.mem Faros_dift.Tag.Ty_netflow r.rt_types then netflow + r.rt_len
        else netflow ))
    (0, 0) regions

let summary_by_process (faros : Faros_plugin.t) =
  List.map
    (fun (p : Faros_os.Process.t) ->
      let total, netflow = taint_totals (regions_of_process faros p) in
      (p.proc_name, total, netflow))
    (Faros_os.Kstate.processes faros.kernel)

(* Provenance-aware `strings`: printable runs inside netflow-tainted
   memory, each with the provenance of its first byte.  The classic
   forensic tool, upgraded: not just "this string is in memory" but "this
   string came off that wire, through those processes". *)
type tainted_string = {
  ts_process : string;
  ts_vaddr : int;
  ts_text : string;
  ts_prov : Faros_dift.Provenance.t;
}

let printable c = Char.code c >= 0x20 && Char.code c < 0x7F

let strings ?(min_len = 4) (faros : Faros_plugin.t) =
  let mmu = faros.kernel.machine.mmu in
  let results = ref [] in
  List.iter
    (fun (r : region_taint) ->
      if List.mem Faros_dift.Tag.Ty_netflow r.rt_types then begin
        let p =
          Option.get (Faros_os.Kstate.proc faros.kernel r.rt_pid)
        in
        let asid = Faros_os.Process.asid p in
        let data =
          Bytes.to_string (Faros_vm.Mmu.read_bytes mmu ~asid r.rt_vaddr r.rt_len)
        in
        let flush start stop =
          if stop - start >= min_len then begin
            let paddr = Faros_vm.Mmu.translate mmu ~asid (r.rt_vaddr + start) in
            let prov = Faros_dift.Shadow.get_mem faros.engine.shadow paddr in
            if Faros_dift.Provenance.has_netflow prov then
              results :=
                {
                  ts_process = r.rt_process;
                  ts_vaddr = r.rt_vaddr + start;
                  ts_text = String.sub data start (stop - start);
                  ts_prov = prov;
                }
                :: !results
          end
        in
        let start = ref (-1) in
        String.iteri
          (fun idx c ->
            if printable c then (if !start < 0 then start := idx)
            else begin
              if !start >= 0 then flush !start idx;
              start := -1
            end)
          data;
        if !start >= 0 then flush !start (String.length data)
      end)
    (tainted_regions faros);
  List.rev !results

let pp_region ~(faros : Faros_plugin.t) ppf r =
  Fmt.pf ppf "%-20s 0x%08X +%-6d [%s]  %s" r.rt_process r.rt_vaddr r.rt_len
    (String.concat "," (List.map ty_name r.rt_types))
    (Report.render_provenance ~store:faros.engine.store
       ~name_of_asid:(Faros_plugin.name_of_asid faros.kernel)
       r.rt_sample)
