(** On-disk serialization of JELF modules.

    A compact binary container (magic ["JELF1"]) carrying everything in
    {!Objfile.t}: sections with their bytes, the full symbol table and its
    visibility level, relocations, imports/exports and dependency
    records.  This is what lets the repository behave like a real binary
    toolchain: the assembler writes [.jelf] files, the CLI inspects and
    runs them, and rule files produced offline refer to them by name. *)

val write : Objfile.t -> string
(** Serialize a module to its container bytes ({!Jt_codec.Codec.encode},
    unsealed). *)

val read : string -> Objfile.t
(** Inverse of {!write}, accepting only canonical encodings: a module it
    returns writes back to exactly its input.
    @raise Jt_codec.Codec.Decode_error (format ["JELF1"]) on truncation,
    bad magic, tags or booleans, counts that cannot fit in the remaining
    bytes, two sections sharing an address, and trailing bytes. *)

val save : dir:string -> Objfile.t -> string
(** Write [<dir>/<name>.jelf] (creating [dir] and any missing parents)
    with {!Jt_codec.Codec.write_file_atomic}, so an interrupted save
    never leaves a partial [.jelf] at the final path; returns the path. *)

val load : string -> Objfile.t
(** Read a module from a file path.
    @raise Jt_codec.Codec.Decode_error / [Sys_error]. *)
