(** Minimal CSV reader/writer for microdata interchange.

    Handles RFC-4180-style quoting (double quotes, escaped by doubling).
    Values are parsed with {!Vadasa_base.Value.of_literal}, so numeric
    columns round-trip as numbers and ["#3"] as a labelled null. *)

val parse_line : string -> string list
(** Split one CSV record into fields. *)

val render_line : string list -> string
(** Quote fields containing commas, quotes or newlines. *)

val read_string : ?header:bool -> name:string -> string -> Relation.t
(** Parse a whole CSV document. With [header] (default true) the first line
    gives the attribute names; otherwise attributes are named [c0, c1, …].
    Raises [Vadasa_base.Error.Error] (code ["csv.ragged_row"], category
    [Parse]) on ragged rows, with [line]/[column] context — [line] is the
    1-based line in the original document (blank lines count), [column]
    the 1-based index of the first extra or missing field. *)

val add_rows : Buffer.t -> Relation.t -> unit
(** Append every tuple as one CSV line ([\n]-terminated, no header),
    quoting as {!render_line} does; each field is written straight
    into the buffer. Fires no fault point and counts nothing. *)

val write_string : Relation.t -> string
(** Render with a header line: the header, then {!add_rows}. Fires the
    ["csv.write"] fault point and counts [csv.write.rows] /
    [csv.write.bytes]. *)

val load : ?header:bool -> name:string -> string -> Relation.t
(** [load ~name path] reads the file at [path]. Parse errors carry a
    [file] context entry in addition to [line]/[column]; an unreadable
    file raises code ["io.read"] (category [Io]). *)

val save : Relation.t -> string -> unit
