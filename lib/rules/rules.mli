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

(** Run-time rule table for one loaded module: addresses adjusted by the
    load base (for PIC modules) and hashed for block- and
    instruction-level lookup. *)
module Table : sig
  type rule = t

  type t

  val load : file -> base:int -> pic:bool -> t

  val bb_seen : t -> int -> bool
  (** Was this (run-time) address a basic-block the static analyzer
      inspected?  True for blocks with transformation rules *and* for
      blocks carrying only a no-op mark. *)

  val at_insn : t -> int -> rule list
  (** All rules anchored at this (run-time) instruction address, with
      their [bb]/[insn] fields already adjusted.  No-op marks are
      filtered out. *)

  val size : t -> int
end
