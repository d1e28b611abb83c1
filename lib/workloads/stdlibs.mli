(** The shared-object substrate every workload links against.

    Four libraries stand in for the system libraries of the paper's SPEC
    setup.  All are position-independent shared objects, so running them
    instrumented exercises the PIC side of the rewrite-rule machinery
    (Figure 5): [libc.so] (allocator wrappers, byte/word copies, an
    indirect-calling [qsort], output), [libm.so] (arithmetic kernels),
    [libcxx.so] (vtable-style double-indirect dispatch; carries the
    C++-exception feature that defeats RetroWrite-style rewriting), and
    [libgfortran.so] (array runtime; hand-written assembly that breaks
    the calling convention, triggering the section 4.1.2 fallback). *)

val libc : Jt_obj.Objfile.t
val libm : Jt_obj.Objfile.t
val libcxx : Jt_obj.Objfile.t
val libgfortran : Jt_obj.Objfile.t

val all : Jt_obj.Objfile.t list
