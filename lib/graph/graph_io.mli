(** Serialization of weighted graphs.

    Three formats are supported:

    - the METIS [.graph] format (the format the paper's comparator, METIS
      5.1.0, consumes), with the [fmt] header field handling node and edge
      weights;
    - a dense adjacency-matrix text format, mirroring how the paper feeds
      graphs ("represented as incidence matrices") to MATLAB;
    - Graphviz DOT output, used to regenerate the paper's Figures 2–13
      (node radius proportional to weight, partitions as colored clusters). *)

val to_metis : Wgraph.t -> string
(** METIS [.graph] text: header [n m 011], then one line per node with its
    weight followed by [neighbor weight] pairs, 1-indexed. *)

val of_metis : string -> Wgraph.t
(** Parses the output of {!to_metis}; also accepts fmt codes [0], [1], [10],
    [11], [100], [110], [111] (vertex-size field is parsed and ignored).
    Comment lines starting with [%] are skipped. This is one {!Rows.feed}
    of the whole text followed by {!Rows.finish}: O(size of the text),
    with whole-graph validation in one O(n + m) pass.
    @raise Failure on malformed input or asymmetric weights — and {e
    only} [Failure]: checks the underlying constructors signal with
    [Invalid_argument] (negative node or edge weights, say) are
    re-raised as [Failure] too, so parsing untrusted text needs exactly
    one handler. *)

module Rows : sig
  (** Resumable cursor over METIS [.graph] text fed in arbitrary
      pieces: the reader behind {!of_metis} and the daemon's chunked
      upload. Complete lines are tokenized as they arrive (an
      incomplete trailing line is carried to the next {!feed}) and
      pushed into a CSR builder that checks each neighbour mention
      (range, self loop) on arrival and the whole graph (duplicates,
      symmetry, negative weights, the declared edge count) once at
      {!finish}. *)

  type t

  val create : unit -> t

  val header : t -> (int * int) option
  (** [(n, m_decl)] once the header line has been parsed. *)

  val rows_done : t -> int

  val feed : t -> string -> unit
  (** Append a piece of text; chunk boundaries may fall anywhere.
      @raise Failure as {!of_metis} on malformed complete lines. *)

  val finish : t -> Wgraph.t
  (** End of input: parse any carried partial line, then run the
      deferred validation.
      @raise Failure (and only [Failure]) with {!of_metis}'s messages,
      including "empty input" and the truncated / surplus node-line
      counts. *)
end

val to_metis_chunks : ?rows_per_chunk:int -> Wgraph.t -> (string -> unit) -> unit
(** [to_metis_chunks g emit]: {!to_metis} output delivered through
    [emit] in pieces cut at node-row boundaries ([rows_per_chunk] rows
    per piece, default 4096), without materializing the whole text. The
    one METIS emitter: {!to_metis} is its single-piece case. *)

val to_adjacency_matrix : Wgraph.t -> string
(** Dense symmetric matrix of edge weights, one row per line, space
    separated; first line is [n], second line the node weights. *)

val of_adjacency_matrix : string -> Wgraph.t
(** Parses {!to_adjacency_matrix} output.
    @raise Failure (and only [Failure], as {!of_metis}) if the matrix is
    not symmetric, has a nonzero diagonal, or carries negative
    weights. *)

val to_dot :
  ?partition:int array ->
  ?label:string ->
  ?weighted:bool ->
  Wgraph.t ->
  string
(** DOT rendering. With [~partition], nodes are grouped into [cluster_p]
    subgraphs and colored per part — the layout of the paper's partitioned
    figures (4, 5, 8, 9, 12, 13). With [~weighted:false], node and edge
    weight labels are suppressed — the "before weighting" figures (2, 6,
    10). Default [weighted = true] matches Figures 3, 7, 11. *)

val write_file : string -> string -> unit
(** [write_file path contents] creates/truncates [path]. *)

val read_file : string -> string

val log_src : Logs.Src.t
(** The [ppnpart.graph] log source. *)
