(* Loader: bases, relocations, GOT binding, dependency closure, dlopen. *)

open Jt_isa
open Jt_asm.Builder
open Jt_asm.Builder.Dsl

let liba =
  build ~name:"liba.so" ~kind:Jt_obj.Objfile.Shared
    ~datas:[ data ~exported:true "shared_val" [ Dword32 77 ] ]
    [ func ~exported:true "afun" [ movi Reg.r0 1; ret ] ]

let libb =
  build ~name:"libb.so" ~kind:Jt_obj.Objfile.Shared ~deps:[ "liba.so" ]
    [ func ~exported:true "bfun" [ I (Jt_asm.Sinsn.Scall (Jt_asm.Sinsn.Rimport "afun")); addi Reg.r0 10; ret ] ]

let main_mod =
  build ~name:"mainx" ~kind:Jt_obj.Objfile.Exec_nonpic ~deps:[ "libb.so" ]
    ~entry:"main"
    [ func "main" [ call_import "bfun"; syscall Sysno.exit_ ] ]

let fresh () =
  let mem = Jt_mem.Memory.create () in
  let loader =
    Jt_loader.Loader.create ~mem ~registry:[ main_mod; liba; libb ]
  in
  (mem, loader)

let test_dependency_closure_order () =
  let _, loader = fresh () in
  let _ = Jt_loader.Loader.load_main loader "mainx" in
  let names =
    List.map
      (fun (l : Jt_loader.Loader.loaded) -> l.lmod.Jt_obj.Objfile.name)
      (Jt_loader.Loader.loaded_modules loader)
  in
  (* dependencies first: ld.so before libb (libb imports through it),
     liba before libb, main last *)
  let pos n =
    let rec go i = function
      | [] -> -1
      | x :: tl -> if String.equal x n then i else go (i + 1) tl
    in
    go 0 names
  in
  Alcotest.(check bool) "liba before libb" true (pos "liba.so" < pos "libb.so");
  Alcotest.(check bool) "libb before main" true (pos "libb.so" < pos "mainx");
  Alcotest.(check bool) "ld.so loaded" true (pos "ld.so" >= 0)

let test_pic_bases_distinct () =
  let _, loader = fresh () in
  let _ = Jt_loader.Loader.load_main loader "mainx" in
  let bases =
    List.filter_map
      (fun (l : Jt_loader.Loader.loaded) ->
        if Jt_obj.Objfile.is_pic l.lmod then Some l.base else None)
      (Jt_loader.Loader.loaded_modules loader)
  in
  Alcotest.(check int) "distinct" (List.length bases)
    (List.length (List.sort_uniq compare bases));
  List.iter (fun b -> Alcotest.(check bool) "nonzero" true (b > 0)) bases

let test_relocation_and_symbols () =
  let mem, loader = fresh () in
  let _ = Jt_loader.Loader.load_main loader "mainx" in
  (* shared_val readable at its runtime address *)
  match Jt_loader.Loader.resolve_symbol loader "shared_val" with
  | Some (l, s) ->
    let v = Jt_mem.Memory.read32 mem (Jt_loader.Loader.runtime_addr l s.vaddr) in
    Alcotest.(check int) "value" 77 v
  | None -> Alcotest.fail "shared_val not found"

let test_got_initialized_lazy () =
  let mem, loader = fresh () in
  let _ = Jt_loader.Loader.load_main loader "mainx" in
  let lb = Jt_loader.Loader.find_loaded loader "libb.so" |> Option.get in
  let imp =
    List.find
      (fun (i : Jt_obj.Objfile.import) -> String.equal i.imp_sym "afun")
      lb.lmod.imports
  in
  let slot = Jt_mem.Memory.read32 mem (Jt_loader.Loader.runtime_addr lb imp.imp_got) in
  (* lazy: points at the plt.lazy stub inside libb itself *)
  Alcotest.(check bool) "points into libb" true (Jt_loader.Loader.contains lb slot);
  (* resolver slot: eagerly bound to ld.so's export *)
  let res =
    List.find
      (fun (i : Jt_obj.Objfile.import) -> String.equal i.imp_sym "__dl_resolve")
      lb.lmod.imports
  in
  let rslot = Jt_mem.Memory.read32 mem (Jt_loader.Loader.runtime_addr lb res.imp_got) in
  let ld = Jt_loader.Loader.find_loaded loader "ld.so" |> Option.get in
  Alcotest.(check bool) "resolver in ld.so" true (Jt_loader.Loader.contains ld rslot)

let test_module_at () =
  let _, loader = fresh () in
  let l = Jt_loader.Loader.load_main loader "mainx" in
  let entry = Jt_loader.Loader.entry_point loader in
  (match Jt_loader.Loader.module_at loader entry with
  | Some l' -> Alcotest.(check string) "main" "mainx" l'.lmod.name
  | None -> Alcotest.fail "entry unmapped");
  Alcotest.(check bool) "in_code" true (Jt_loader.Loader.in_code l entry);
  Alcotest.(check bool) "junk unmapped" true
    (Jt_loader.Loader.module_at loader 0x0666_0000 = None)

let test_index_tracks_dlopen_dlclose () =
  (* The interval index behind module_at must follow the loaded set:
     entries appear on dlopen and disappear on dlclose. *)
  let plugx =
    build ~name:"plugx.so" ~kind:Jt_obj.Objfile.Shared
      [ func ~exported:true "pfun" [ movi Reg.r0 9; ret ] ]
  in
  let mem = Jt_mem.Memory.create () in
  let loader =
    Jt_loader.Loader.create ~mem ~registry:[ main_mod; liba; libb; plugx ]
  in
  let _ = Jt_loader.Loader.load_main loader "mainx" in
  let l = Jt_loader.Loader.dlopen loader "plugx.so" in
  let s = List.hd l.lmod.Jt_obj.Objfile.sections in
  let probe = Jt_loader.Loader.runtime_addr l s.vaddr in
  (match Jt_loader.Loader.module_at loader probe with
  | Some l' -> Alcotest.(check string) "indexed after dlopen" "plugx.so" l'.lmod.name
  | None -> Alcotest.fail "plugx not indexed after dlopen");
  Alcotest.(check bool) "dlclose ok" true
    (Jt_loader.Loader.dlclose loader "plugx.so");
  Alcotest.(check bool) "dropped after dlclose" true
    (Jt_loader.Loader.module_at loader probe = None);
  let entry = Jt_loader.Loader.entry_point loader in
  match Jt_loader.Loader.module_at loader entry with
  | Some l' -> Alcotest.(check string) "main still indexed" "mainx" l'.lmod.name
  | None -> Alcotest.fail "main lost from index"

let test_dlopen_idempotent () =
  let _, loader = fresh () in
  let _ = Jt_loader.Loader.load_main loader "mainx" in
  let p1 = Jt_loader.Loader.dlopen loader "liba.so" in
  let p2 = Jt_loader.Loader.dlopen loader "liba.so" in
  Alcotest.(check int) "same base" p1.base p2.base;
  Alcotest.(check int) "no duplicate"
    (List.length (Jt_loader.Loader.loaded_modules loader))
    4 (* ld.so, liba, libb, mainx *)

let test_load_error () =
  let _, loader = fresh () in
  match Jt_loader.Loader.load_main loader "missing" with
  | exception Jt_loader.Loader.Load_error _ -> ()
  | _ -> Alcotest.fail "expected Load_error"

(* -- per-module tables -- *)

(* A PIC main, so non-PIC plugins can map at their link addresses. *)
let table_loader plugins =
  let mainp =
    build ~name:"mainp" ~kind:Jt_obj.Objfile.Exec_pic ~deps:[ "libb.so" ]
      ~entry:"main"
      [ func "main" [ call_import "bfun"; syscall Sysno.exit_ ] ]
  in
  Jt_loader.Loader.create ~mem:(Jt_mem.Memory.create ())
    ~registry:([ mainp; liba; libb ] @ plugins)

(* Non-PIC plugins all map at base 0: same layout, different names. *)
let plugin name =
  build ~name ~kind:Jt_obj.Objfile.Exec_nonpic
    [ func ~exported:true "pfun" [ movi Reg.r0 9; ret ] ]

(* A table whose row is the module's name. *)
let names_table loader =
  let tbl = Jt_loader.Loader.table () in
  Jt_loader.Loader.track loader tbl (fun l ->
      Some l.Jt_loader.Loader.lmod.Jt_obj.Objfile.name);
  tbl

let first_byte (l : Jt_loader.Loader.loaded) =
  Jt_loader.Loader.runtime_addr l (List.hd l.lmod.Jt_obj.Objfile.sections).vaddr

let test_table_startup () =
  let loader = table_loader [] in
  let tbl = names_table loader in
  let _ = Jt_loader.Loader.load_main loader "mainp" in
  let loaded = Jt_loader.Loader.loaded_modules loader in
  Alcotest.(check (list string))
    "every startup module, newest first"
    (List.rev_map (fun (l : Jt_loader.Loader.loaded) -> l.lmod.name) loaded)
    (List.map snd (Jt_loader.Loader.entries tbl));
  List.iter
    (fun (l : Jt_loader.Loader.loaded) ->
      Alcotest.(check (option string))
        ("find in " ^ l.lmod.name) (Some l.lmod.name)
        (Jt_loader.Loader.find tbl (first_byte l)))
    loaded

let test_table_dlclose () =
  let loader = table_loader [ plugin "pa.so"; plugin "pb.so" ] in
  let tbl = names_table loader in
  let _ = Jt_loader.Loader.load_main loader "mainp" in
  let n = List.length (Jt_loader.Loader.entries tbl) in
  let pa = Jt_loader.Loader.dlopen loader "pa.so" in
  Alcotest.(check (option string)) "row after dlopen" (Some "pa.so")
    (Jt_loader.Loader.find tbl (first_byte pa));
  Alcotest.(check bool) "dlclose" true (Jt_loader.Loader.dlclose loader "pa.so");
  Alcotest.(check (option string)) "no row after dlclose" None
    (Jt_loader.Loader.find tbl (first_byte pa));
  Alcotest.(check int) "entry dropped" n (List.length (Jt_loader.Loader.entries tbl))

let test_table_reused_base () =
  let loader = table_loader [ plugin "pa.so"; plugin "pb.so" ] in
  let tbl = names_table loader in
  let _ = Jt_loader.Loader.load_main loader "mainp" in
  let pa = Jt_loader.Loader.dlopen loader "pa.so" in
  ignore (Jt_loader.Loader.dlclose loader "pa.so");
  let pb = Jt_loader.Loader.dlopen loader "pb.so" in
  Alcotest.(check int) "same address" (first_byte pa) (first_byte pb);
  Alcotest.(check (option string)) "the new module's row" (Some "pb.so")
    (Jt_loader.Loader.find tbl (first_byte pb))

let test_table_unmapped () =
  let loader = table_loader [] in
  let untracked = Jt_loader.Loader.table () in
  let tbl = names_table loader in
  let _ = Jt_loader.Loader.load_main loader "mainp" in
  Alcotest.(check (option string)) "outside every module" None
    (Jt_loader.Loader.find tbl 0x0666_0000);
  Alcotest.(check (option string)) "untracked table" None
    (Jt_loader.Loader.find untracked (Jt_loader.Loader.entry_point loader))

let test_dlclose_only_its_module () =
  (* Three run-time loads with a dlclose between them: the third takes a
     fresh load order, so closing it leaves the second loaded. *)
  let shared name =
    build ~name ~kind:Jt_obj.Objfile.Shared [ func ~exported:true "f" [ ret ] ]
  in
  let loader = table_loader [ shared "sa.so"; shared "sb.so"; shared "sc.so" ] in
  let tbl = names_table loader in
  let _ = Jt_loader.Loader.load_main loader "mainp" in
  List.iter (fun n -> ignore (Jt_loader.Loader.dlopen loader n)) [ "sa.so"; "sb.so" ];
  ignore (Jt_loader.Loader.dlclose loader "sa.so");
  ignore (Jt_loader.Loader.dlopen loader "sc.so");
  ignore (Jt_loader.Loader.dlclose loader "sc.so");
  Alcotest.(check bool) "sb.so still loaded" true
    (Jt_loader.Loader.find_loaded loader "sb.so" <> None);
  let rows = List.map snd (Jt_loader.Loader.entries tbl) in
  Alcotest.(check (list bool)) "rows of sa, sb, sc" [ false; true; false ]
    (List.map (fun n -> List.mem n rows) [ "sa.so"; "sb.so"; "sc.so" ])

let () =
  Alcotest.run "loader"
    [
      ( "loading",
        [
          Alcotest.test_case "closure order" `Quick test_dependency_closure_order;
          Alcotest.test_case "pic bases" `Quick test_pic_bases_distinct;
          Alcotest.test_case "relocations" `Quick test_relocation_and_symbols;
          Alcotest.test_case "got lazy" `Quick test_got_initialized_lazy;
          Alcotest.test_case "module_at" `Quick test_module_at;
          Alcotest.test_case "dlopen idempotent" `Quick test_dlopen_idempotent;
          Alcotest.test_case "index tracks dlopen/dlclose" `Quick
            test_index_tracks_dlopen_dlclose;
          Alcotest.test_case "load error" `Quick test_load_error;
          Alcotest.test_case "dlclose only its module" `Quick
            test_dlclose_only_its_module;
        ] );
      ( "table",
        [
          Alcotest.test_case "tracked before boot" `Quick test_table_startup;
          Alcotest.test_case "dlclose drops the row" `Quick test_table_dlclose;
          Alcotest.test_case "reused base" `Quick test_table_reused_base;
          Alcotest.test_case "outside every module" `Quick test_table_unmapped;
        ] );
    ]
