(** A Juliet-style CWE-122 (heap buffer overflow) test-case suite.

    624 generated test cases, each with a good (well-behaving) and a bad
    (buggy) variant, mirroring the structure of the NIST Juliet subset the
    paper evaluates (Figure 10).  Flavours:

    - {b Heap_heap}: overflow of one heap block toward its neighbour;
      the first out-of-bounds write lands in the redzone — every
      sanitizer's bread and butter.
    - {b Heap_heap_slack}: two bugs, one of which writes only into the
      8-byte allocator alignment slack.  Byte-granular redzones (JASan)
      report both; allocator-granularity redzones (the Valgrind-class
      baseline) report fewer-than-actual — its 24 heap FNs.
    - {b Stack_heap}: a stack-resident source copied into an undersized
      heap destination; caught at the heap redzone by both.
    - {b Heap_stack_contig}: a heap walk that runs off the end of its
      block heading for the stack; caught at the redzone crossing.
    - {b Heap_stack_direct}: a corrupted pointer lands directly in a
      caller's stack frame, touching neither a redzone nor a canary —
      the 96 false negatives both tools share, consistent with JASan's
      frame-granularity stack policy. *)

type category =
  | Heap_heap
  | Heap_heap_slack
  | Stack_heap
  | Heap_stack_contig
  | Heap_stack_direct

type case = {
  c_id : int;
  c_cat : category;
  c_expected : int;  (** distinct violations the bad variant contains *)
}

val cases : case list
(** All 624, ids 0..623. *)

val build_case : case -> bad:bool -> Jt_obj.Objfile.t

val registry_for : Jt_obj.Objfile.t -> Jt_obj.Objfile.t list

type tally = {
  t_true_pos : int;  (** bad variants fully reported *)
  t_false_neg : int;  (** bad variants with no or fewer-than-actual reports *)
  t_true_neg : int;  (** good variants with no reports *)
  t_false_pos : int;  (** good variants incorrectly flagged *)
}

val evaluate : ?limit:int -> Jt_schemes.Scheme.t -> tally
(** Run every case's two variants under the scheme.  [limit] restricts
    to the first n cases (for quick tests).
    @raise Failure if the scheme refuses a case (every case is a non-PIC
    executable). *)

(** {2 Sibling families}

    Beyond the CWE-122 core suite, four Juliet-style sibling families
    extend the Figure-10 detection matrix:

    - {b CWE-124} (buffer underwrite): a byte store at [base - 1] lands
      in the left redzone — caught at both redzone granularities.
    - {b CWE-415} (double free): the second [free] of the same base,
      including zero-size blocks; reported by the allocator interposer
      as ["double-free"].
    - {b CWE-416} (use-after-free): dangling loads, dangling stores and
      stale pre-[realloc] pointers; the freed payload stays
      [Heap_freed] in the allocator quarantine.
    - {b CWE-121} (stack buffer overflow): a computed-pointer store
      into the canary slot, storing the canary's own value — invisible
      natively (exit 0), caught only by canary-aware shadow tools, so
      the Valgrind-class baseline false-negatives the whole family. *)

type family = Cwe124 | Cwe415 | Cwe416 | Cwe121

val family_name : family -> string
val families : family list

type fcase = {
  fc_id : int;
  fc_fam : family;
  fc_expected : int;  (** distinct violations the bad variant contains *)
  fc_kind : string;  (** the violation kind the bad variant must raise *)
}

val family_cases : family -> fcase list
(** 48 (CWE-124), 48 (CWE-415), 96 (CWE-416) and 72 (CWE-121) cases. *)

val all_family_cases : fcase list

val build_family_case : fcase -> bad:bool -> Jt_obj.Objfile.t

val evaluate_family : ?limit:int -> Jt_schemes.Scheme.t -> family -> tally
