type lang = C | Cxx | Fortran | Mixed_cf

let lang_name = function
  | C -> "C"
  | Cxx -> "C++"
  | Fortran -> "Fortran"
  | Mixed_cf -> "C/Fortran"

type t = {
  s_name : string;
  s_lang : lang;
  s_units : int;
  s_elems : int;
  s_stream_loops : int;
  s_chase_steps : int;
  s_alu_calls : int;
  s_ind_calls : int;
  s_switches : int;
  s_call_depth : int;
  s_mallocs : int;
  s_memlib_calls : int;
  s_qsort : bool;
  s_dlopen_solver : int;
  s_computed_goto : int;
  s_code_bloat : int;
  s_literal_pool : int;
  s_fails_lockdown : bool;
  s_stencil : int;
  s_hist : int;
  s_strproc : int;
  s_recurse : int;
}

let base name lang =
  {
    s_name = name;
    s_lang = lang;
    s_units = 30;
    s_elems = 512;
    s_stream_loops = 1;
    s_chase_steps = 200;
    s_alu_calls = 4;
    s_ind_calls = 4;
    s_switches = 4;
    s_call_depth = 3;
    s_mallocs = 1;
    s_memlib_calls = 1;
    s_qsort = false;
    s_dlopen_solver = 0;
    s_computed_goto = 0;
    s_code_bloat = 10;
    s_literal_pool = 0;
    s_fails_lockdown = false;
    s_stencil = 0;
    s_hist = 0;
    s_strproc = 0;
    s_recurse = 0;
  }

(* Traits follow the usual characterization of each SPEC CPU2006
   benchmark: interpreter/compiler codes are branchy and
   indirect-transfer heavy; the fp codes stream over arrays; mcf and
   astar chase pointers; h264ref and cactusADM pass comparison callbacks
   to qsort-style routines (the Lockdown false-positive pattern of
   section 6.2.2); cactusADM's solver arrives via dlopen so nearly all
   of its executed code is invisible statically (Figure 14); lbm's two
   computed-goto blocks are the paper's other outlier. *)
let all =
  [
    { (base "perlbench" C) with s_units = 40; s_ind_calls = 14; s_switches = 10;
      s_chase_steps = 260; s_mallocs = 5; s_call_depth = 5; s_code_bloat = 40;
      s_stream_loops = 1; s_elems = 256; s_strproc = 2; };
    { (base "bzip2" C) with s_stream_loops = 4; s_elems = 1024; s_chase_steps = 80;
      s_ind_calls = 1; s_switches = 2; s_memlib_calls = 3 };
    { (base "gcc" C) with s_units = 36; s_ind_calls = 12; s_switches = 12;
      s_chase_steps = 240; s_mallocs = 6; s_call_depth = 5; s_code_bloat = 60;
      s_elems = 256; s_qsort = true; s_strproc = 1; s_recurse = 6; };
    { (base "mcf" C) with s_chase_steps = 900; s_stream_loops = 1; s_elems = 1024;
      s_ind_calls = 1; s_switches = 1; s_alu_calls = 1 };
    { (base "gobmk" C) with s_units = 34; s_ind_calls = 8; s_switches = 8;
      s_call_depth = 6; s_chase_steps = 300; s_code_bloat = 30; s_recurse = 10; };
    { (base "hmmer" C) with s_stream_loops = 3; s_elems = 768; s_chase_steps = 60;
      s_switches = 2; s_ind_calls = 1; s_hist = 2; };
    { (base "sjeng" C) with s_units = 34; s_switches = 10; s_ind_calls = 6;
      s_call_depth = 7; s_chase_steps = 280; s_code_bloat = 20; s_recurse = 12; };
    { (base "libquantum" C) with s_stream_loops = 5; s_elems = 1024;
      s_chase_steps = 20; s_ind_calls = 1; s_switches = 1; s_alu_calls = 1 };
    { (base "h264ref" C) with s_stream_loops = 3; s_elems = 640; s_qsort = true;
      s_ind_calls = 5; s_memlib_calls = 3; s_chase_steps = 100; s_strproc = 2; };
    { (base "omnetpp" Cxx) with s_units = 32; s_ind_calls = 12; s_mallocs = 8;
      s_chase_steps = 260; s_switches = 6; s_fails_lockdown = true;
      s_code_bloat = 30 };
    { (base "astar" Cxx) with s_chase_steps = 700; s_elems = 768; s_ind_calls = 4;
      s_switches = 2; s_mallocs = 3 };
    { (base "xalancbmk" Cxx) with s_units = 34; s_ind_calls = 16; s_switches = 10;
      s_mallocs = 6; s_chase_steps = 200; s_code_bloat = 70; s_elems = 256 };
    { (base "bwaves" Fortran) with s_stream_loops = 5; s_elems = 1024;
      s_chase_steps = 10; s_ind_calls = 1; s_switches = 1; s_stencil = 2; };
    { (base "gamess" Fortran) with s_units = 26; s_alu_calls = 10;
      s_stream_loops = 2; s_chase_steps = 40; s_literal_pool = 900;
      s_code_bloat = 50; s_ind_calls = 2 };
    { (base "milc" C) with s_stream_loops = 4; s_elems = 896; s_chase_steps = 30;
      s_ind_calls = 1; s_switches = 1; s_hist = 1; s_stencil = 1; };
    { (base "zeusmp" Fortran) with s_stream_loops = 4; s_elems = 896;
      s_chase_steps = 20; s_literal_pool = 1100; s_code_bloat = 40;
      s_ind_calls = 1; s_switches = 1; s_stencil = 2; };
    { (base "gromacs" Mixed_cf) with s_alu_calls = 8; s_stream_loops = 3;
      s_elems = 640; s_chase_steps = 60 };
    { (base "cactusADM" Mixed_cf) with s_units = 24; s_dlopen_solver = 96;
      s_stream_loops = 0; s_chase_steps = 0; s_alu_calls = 0; s_ind_calls = 0;
      s_switches = 0; s_call_depth = 1; s_memlib_calls = 0; s_qsort = false;
      s_code_bloat = 0; s_mallocs = 1; s_elems = 512 };
    { (base "leslie3d" Fortran) with s_stream_loops = 4; s_elems = 832;
      s_chase_steps = 20; s_ind_calls = 1; s_stencil = 2; };
    { (base "namd" Cxx) with s_alu_calls = 12; s_stream_loops = 2;
      s_chase_steps = 40; s_ind_calls = 2; s_switches = 1; s_stencil = 1; };
    { (base "dealII" Cxx) with s_units = 30; s_ind_calls = 10; s_mallocs = 6;
      s_alu_calls = 6; s_chase_steps = 160; s_fails_lockdown = true;
      s_code_bloat = 50 };
    { (base "soplex" Cxx) with s_chase_steps = 420; s_elems = 768;
      s_stream_loops = 2; s_ind_calls = 3; s_mallocs = 3 };
    { (base "povray" Cxx) with s_units = 32; s_ind_calls = 9; s_switches = 7;
      s_alu_calls = 8; s_call_depth = 6; s_chase_steps = 140; s_code_bloat = 25; s_recurse = 8; };
    { (base "calculix" Mixed_cf) with s_alu_calls = 7; s_stream_loops = 3;
      s_elems = 640; s_chase_steps = 80 };
    { (base "GemsFDTD" Fortran) with s_stream_loops = 5; s_elems = 960;
      s_chase_steps = 15; s_ind_calls = 1; s_stencil = 2; };
    { (base "tonto" Fortran) with s_alu_calls = 10; s_stream_loops = 2;
      s_elems = 512; s_chase_steps = 50; s_code_bloat = 35 };
    { (base "lbm" C) with s_units = 18; s_stream_loops = 1; s_elems = 4096;
      s_chase_steps = 0; s_alu_calls = 0; s_ind_calls = 0; s_switches = 0;
      s_call_depth = 0; s_mallocs = 0; s_memlib_calls = 0; s_computed_goto = 2;
      s_code_bloat = 0 };
    { (base "sphinx3" C) with s_stream_loops = 3; s_elems = 768;
      s_chase_steps = 120; s_ind_calls = 2; s_switches = 2; s_strproc = 1; s_hist = 1; };
  ]

let find name = List.find (fun s -> String.equal s.s_name name) all

let c_benchmarks = List.filter (fun s -> s.s_lang = C) all
