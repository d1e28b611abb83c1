(** JSON values and their one printer: every bench report and the CLI's
    JSON dumps are built as a {!t} and printed by {!to_string}. *)

type t =
  | Int of int
  | Float of int * float
      (** digits after the decimal point, then the value; a non-finite
          value prints as [null] *)
  | Bool of bool
  | String of string
  | Null
  | List of t list
  | Obj of (string * t) list  (** members in print order *)

val to_string : t -> string
(** The document, without a trailing newline.  A top-level object puts
    each member on a line of its own, and a non-empty list that is a
    member's value (or the document itself) puts each element on a line
    of its own; everything below that prints inline, as
    [{"k": v, "k2": v2}] and [[a, b]].  Strings are escaped for JSON:
    quote, backslash and every control byte. *)
