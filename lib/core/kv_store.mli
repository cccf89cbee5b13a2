(** The key-value store architecture over a DNA pool (Section II-F): a
    pair of PCR primers is the key; the payloads of all molecules
    flanked by it are the value. All files share one unordered pool. *)

type entry = {
  key : string;
  pair : Codec.Primer.pair;
  n_units : int;
  params : Codec.Params.t;
  layout : Codec.Layout.t;
  original_size : int;
}

type t = {
  rng : Dna.Rng.t;
  mutable pool : Dna.Strand.t array;  (** the test tube *)
  mutable directory : entry list;  (** external metadata, not stored in DNA *)
  primers : Codec.Primer.Registry.t;
      (** pairs in use; a pair reserved by a [put] that fails mid-encode
          is released again *)
  index : Primer_index.t;  (** primer pair -> pool indices, maintained on [put] *)
}

val create : seed:int -> t

val mem : t -> string -> bool
val keys : t -> string list
val pool_size : t -> int

type put_error =
  | Duplicate_key of string
  | Primer_space_exhausted of { attempts : int }
      (** no primer pair far enough from every pair already in use *)

val put_error_message : put_error -> string

val put :
  ?params:Codec.Params.t -> ?layout:Codec.Layout.t -> t -> key:string -> Bytes.t ->
  (unit, put_error) result
(** Encode the file, tag it with a fresh primer pair and mix its
    molecules into the pool. [Error] on a duplicate key or when the
    primer space is exhausted (the pool keeps every pair pairwise far
    apart, so capacity is finite). *)

val put_exn :
  ?params:Codec.Params.t -> ?layout:Codec.Layout.t -> t -> key:string -> Bytes.t -> unit
(** {!put} for callers without a recovery path; raises
    [Invalid_argument] with {!put_error_message}. *)

val pcr_select : t -> Codec.Primer.pair -> Dna.Strand.t array
(** PCR amplification: the pool molecules carrying both primers,
    gathered through the primer index {!put} maintains, in O(own
    molecules). A pair no [put] recorded selects nothing. *)

type get_error = Key_not_found | Decode_failed of string

val get :
  ?stages:Pipeline.stages -> ?domains:int -> t -> key:string ->
  (Bytes.t * Pipeline.timings, get_error) result
(** The full random-access path: {!pcr_select}, then
    {!Pipeline.random_access} with [stages] (default
    {!Pipeline.default_stages}), drawing both its sequencing and its
    clustering stream from the store's rng. That function sequences
    the reads in both orientations, orients them and strips the primers
    ({!Wetlab_io.ingest_pool}), clusters, reconstructs and decodes.
    Every call is a fresh sequencing run. [domains] (default
    {!Dna.Par.default_domains}) fans out reconstruction only; the
    decoded bytes are the same for every [domains]. The timings are
    {!Pipeline.random_access}'s. *)
