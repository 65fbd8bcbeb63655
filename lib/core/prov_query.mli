(** Post-analysis provenance queries.

    The report answers "was there an injection"; these helpers answer the
    analyst's follow-ups: where tainted data sits, in which processes,
    carrying which tag types. *)

type region_taint = {
  rt_pid : Faros_os.Types.pid;
  rt_process : string;
  rt_vaddr : int;  (** start of the contiguous tainted run *)
  rt_len : int;
  rt_types : Faros_dift.Tag.ty list;  (** union over the run *)
  rt_sample : Faros_dift.Provenance.t;  (** provenance of the first byte *)
}

val ty_name : Faros_dift.Tag.ty -> string

val regions :
  mmu:Faros_vm.Mmu.t ->
  asid:int ->
  shadow:Faros_dift.Shadow.t ->
  pid:Faros_os.Types.pid ->
  process:string ->
  (int * int) list ->
  region_taint list
(** [regions ~mmu ~asid ~shadow ~pid ~process ranges]: the contiguous
    tainted runs of the virtual [(vaddr, length)] ranges of address space
    [asid], in ascending address order.  A region is a maximal run of
    bytes with non-empty provenance that are contiguous {e virtually} —
    it may cross into a non-adjacent physical frame — and never extends
    past the end of its range.  Every page the ranges touch must be
    mapped ({!Faros_vm.Mmu.Page_fault} otherwise).

    Cost: one translation and one {!Faros_dift.Shadow.iter_page_runs}
    per page, plus O(1) per run of equal provenance: O(mapped pages +
    tainted runs), not O(mapped bytes).  Types accumulate as the
    interner's cached type masks and become a list once per region. *)

val regions_of_process :
  Faros_plugin.t -> Faros_os.Process.t -> region_taint list
(** {!regions} over one process's user-space mappings (the mapped ranges
    below the kernel region). *)

val tainted_regions : Faros_plugin.t -> region_taint list

val taint_totals : region_taint list -> int * int
(** [(tainted bytes, bytes in regions carrying netflow taint)] — the
    per-process summary both {!summary_by_process} and the attack graph's
    enrichment report. *)

val summary_by_process : Faros_plugin.t -> (string * int * int) list
(** Per process: (name, {!taint_totals} of its {!regions_of_process}). *)

(** A printable run found inside netflow-tainted memory. *)
type tainted_string = {
  ts_process : string;
  ts_vaddr : int;
  ts_text : string;
  ts_prov : Faros_dift.Provenance.t;
}

val strings : ?min_len:int -> Faros_plugin.t -> tainted_string list
(** Provenance-aware [strings]: printable runs (length >= [min_len],
    default 4) in netflow-tainted memory, each with the provenance of its
    first byte — "this string came off that wire, through those
    processes". *)

val pp_region : faros:Faros_plugin.t -> region_taint Fmt.t
