(** Rewrite rules — the interface between the static analyzer and the
    dynamic modifier (Figure 3 of the paper).

    Each rule names a handler routine in the dynamic modifier ([rule_id]),
    the basic block and instruction it applies to (link-time addresses),
    and up to four optional data words (liveness masks, displacement
    values, target-set identifiers...).  Rules are serialized into a
    per-module rule file that the dynamic modifier loads — and address
    adjusts, for PIC modules — when the module is loaded (Figure 5a).

    Rule identifiers are allocated by tools; the core reserves {!no_op}:
    the mark placed on every statically inspected block that needs no
    transformation, so the dynamic modifier can distinguish "statically
    proven fine" from "never statically seen" (section 3.3.4). *)

type t = {
  rule_id : int;
  bb : int;  (** basic-block address *)
  insn : int;  (** instruction address the handler anchors to *)
  data : int array;  (** up to four 32-bit data words *)
}

val no_op : int
(** Rule id 0: statically inspected, no modification needed. *)

val make : id:int -> bb:int -> insn:int -> ?data:int list -> unit -> t

type file = {
  rf_module : string;
  rf_digest : string;
      (** content digest of the module these rules were computed from
          (16-byte MD5 from [Jt_obj.Objfile.digest]), or [""] when
          unknown; serialized into the file header so a consumer can
          reject a cache written for a different build of the module *)
  rf_stats : (string * int) list;
      (** per-module static-pass accounting (e.g. ["elide_dom"],
          ["checks"]): key/value pairs serialized into the
          v3 header so the analyzer's decisions travel with the rules
          under the same digest scheme.  At most 255 entries, keys at
          most 255 bytes.  [[]] when a producer has nothing to report. *)
  rf_rules : t list;
}

val encode_file : file -> string
(** Serialize as a "JTR3" rule file in the sealed
    {!Jt_codec.Codec.seal} frame (digest and stats in the header).
    @raise Invalid_argument if the digest or a stat key exceeds 255
    bytes, or there are more than 255 stats. *)

val decode_file : string -> file
(** @raise Jt_codec.Codec.Decode_error (format ["JTR3"]) on malformed
    input: any flipped bit or truncation fails the frame (so do files
    written before it, and the older "JTR2"/"JTRR" layouts, which
    degrade to re-analysis), and a declared count that exceeds what the
    remaining bytes could hold is rejected before the decode loop. *)

(** {1 The load-time index}

    A run binds a module's rules when the module loads (Figure 4 step
    1).  The index that binding reads is built once per [file] object,
    on the first {!index} call (by a DBT tracker, a CFI target table or
    the emitter, never by a static pass or {!encode_file}), and kept
    beside the file ({!Jt_derived.Derived}): it dies with the file, so a
    per-operation file takes its index with it.  It is keyed by link
    address and holds the file's own records: a PIC module loaded at
    [base] looks up [addr - base] and {!shift}s what it hands on.  A
    [{ f with ... }] copy never answers from [f]'s index: it is a new
    object and builds its own.  Each domain keeps its own indexes, so
    two domains may each build one file's index once. *)

type index

val index : file -> index
(** The file's index, built on the first call for this object. *)

val indexed : file -> bool
(** Whether {!index} has built this object's index on the calling
    domain. *)

module Index : sig
  type rule = t
  type t = index

  val bb_seen : t -> int -> bool
  (** Was this link address a basic block the static analyzer
      inspected?  True for blocks with transformation rules {e and} for
      blocks carrying only a no-op mark. *)

  val at_insn : t -> int -> rule list
  (** The rules anchored at this link address, in file order, as the
      file holds them, in a list made for the call.  No-op marks are
      filtered out. *)

  val exists_at : t -> int -> (rule -> bool) -> bool
  (** Whether a rule {!at_insn} would return satisfies the predicate;
      allocates no list. *)

  val fold_at : (rule -> 'a -> 'a) -> t -> int -> 'a -> 'a
  (** Over the rules {!at_insn} would return, in file order; allocates
      no list. *)

  val size : t -> int
  (** Rules in the file, no-op marks included. *)

  val fold : (int -> rule list -> 'a -> 'a) -> t -> 'a -> 'a
  (** Over every address with a rule anchored at it ({!at_insn} not
      empty), in no particular order. *)
end

val shift : base:int -> t list -> t list
(** The rules with [bb] and [insn] moved by [base] (link to run-time
    coordinates); the list itself when [base] is 0. *)
