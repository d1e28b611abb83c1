(* Module corpora the reference tests sweep: the registry, the standard
   libraries and ld.so, the benchmark's cold-code ladder at seed 1 and
   168 Fuzz mains. *)

let dedup modules =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun m ->
      let d = Jt_obj.Objfile.digest m in
      (not (Hashtbl.mem seen d)) && (Hashtbl.replace seen d (); true))
    modules

(* Every registry module (mains and the libraries they load), every
   standard library and ld.so. *)
let registry_modules () =
  dedup
    (List.concat_map
       (fun s -> (Jt_workloads.Specgen.build s).Jt_workloads.Specgen.w_registry)
       Jt_workloads.Sheet.all
    @ Jt_workloads.Stdlibs.all @ [ Jt_loader.Loader.ld_so ])

(* The registry's main executables, one per workload. *)
let registry_mains () =
  List.map
    (fun s -> (Jt_workloads.Specgen.build s).Jt_workloads.Specgen.w_main)
    Jt_workloads.Sheet.all

let libraries () = Jt_workloads.Stdlibs.all @ [ Jt_loader.Loader.ld_so ]

(* The benchmark's cold-code ladder at seed 1: registry sheets with one
   driver unit and their code bloated. *)
let cold_modules () =
  List.mapi
    (fun k (base, bloat) ->
      let s =
        { (Jt_workloads.Sheet.find base) with
          Jt_workloads.Sheet.s_name = Printf.sprintf "%s_cold_1_0_%d" base k;
          s_code_bloat = bloat;
          s_units = 1 }
      in
      (Jt_workloads.Specgen.build s).Jt_workloads.Specgen.w_main)
    [ ("gcc", 150); ("sjeng", 300); ("gobmk", 450); ("h264ref", 600);
      ("perlbench", 800) ]

let fuzz_modules () =
  List.map Jt_fuzz.Fuzz.build (Jt_fuzz.Fuzz.cases_of ~base_seed:28001 ~seeds:28)
