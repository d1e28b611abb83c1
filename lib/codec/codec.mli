(** The one binary codec behind every persisted artifact: little-endian
    primitives, two containers, and one typed decode error.

    - {!encode}/{!decode}: [magic | payload], for JELF, where a flipped
      byte is another valid module rather than a corrupt cache.
    - {!seal}/{!unseal}: [magic | u16 version | u32 length | payload |
      MD5 of everything before], the frame of every derived artifact
      (rule files, IR-store entries, emit maps): no flip or truncation
      of one decodes.

    A format is named by its magic, the [format] of every
    {!Decode_error} its decoder raises; decoders raise nothing else. *)

exception Decode_error of { format : string; offset : int; reason : string }
(** [offset] is the byte of the input where decoding failed. *)

val to_string : exn -> string
(** The one printer, also registered with [Printexc]: a {!Decode_error}
    with its format, offset and reason, anything else as
    [Printexc.to_string] prints it. *)

type width = U8 | U16 | U32
(** The width of a length prefix. *)

module W : sig
  type t = Buffer.t

  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit

  val i32 : t -> int -> unit
  (** Scalars store the value's low bits: [i32] is {!u32}, read back
      signed by {!R.i32}. *)

  val bool : t -> bool -> unit

  val str : width -> t -> string -> unit
  val list : width -> (t -> 'a -> unit) -> t -> 'a list -> unit

  val array : width -> (t -> 'a -> unit) -> t -> 'a array -> unit
  (** A length or count behind a [width] prefix, then the elements.
      @raise Invalid_argument if the count does not fit the width. *)

  val enum : 'a array -> t -> 'a -> unit
  (** A [u8] tag: the value's index in a table of constant
      constructors. *)

  val option : (t -> 'a -> unit) -> t -> 'a option -> unit
  (** A {!bool} tag, then the value when there is one. *)
end

module R : sig
  type t
  (** A bounds-checked cursor over one artifact's payload. *)

  val fail : t -> string -> 'a
  (** Raise {!Decode_error} for this artifact at the cursor: the way a
      format's own checks (tags, invariants) reject their input. *)

  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int

  val i32 : t -> int
  (** Sign-extends the 32 bits. *)

  val bool : t -> bool
  (** Accepts only the bytes 0 and 1. *)

  val str : width -> t -> string

  val list : width -> min:int -> (t -> 'a) -> t -> 'a list
  (** [min] is the fewest bytes one element can take; a count of
      elements that cannot fit in the remaining bytes is rejected before
      any is read. *)

  val array : width -> min:int -> (t -> 'a) -> t -> 'a array
  (** As {!list}; elements are read in order. *)

  val enum : 'a array -> t -> 'a
  (** Inverse of {!W.enum}: rejects a tag past the table. *)

  val option : (t -> 'a) -> t -> 'a option
end

val encode : magic:string -> (W.t -> unit) -> string
(** [magic | payload]. *)

val decode : magic:string -> (R.t -> 'a) -> string -> 'a
(** Inverse of {!encode}: the payload reader must consume every byte. *)

val seal : magic:string -> version:int -> (W.t -> unit) -> string
(** [magic | u16 version | u32 length | payload | MD5]. *)

val unseal : magic:string -> version:int -> (R.t -> 'a) -> string -> 'a
(** Inverse of {!seal}: checks magic, version, length and checksum
    before the payload reader runs, and that it consumes the whole
    payload. *)

(** {1 Files} *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents; racing creators are
    fine. *)

val read_file : string -> string
(** The whole file.  @raise Sys_error *)

val write_file_atomic : string -> string -> unit
(** Publish [data] at [path]: create the parent directories, write a
    temp file beside [path], then rename it over [path].  Readers see
    the old file or the whole new one, never a torn write, and the temp
    file is removed if the write fails. *)
