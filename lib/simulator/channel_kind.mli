(** The three read channels a store or a CLI run picks by name, each
    built at one per-base error rate: the one vocabulary behind the
    CLI's [--channel] and a store's persisted channel. *)

type t =
  | Iid  (** {!Iid_channel} (Rashtchian), the rate split evenly over ins/del/sub *)
  | Solqc  (** {!Solqc_channel} *)
  | Wetlab  (** {!Wetlab_channel}, the rate as its [base_error] *)

val all : t list

val name : t -> string
(** ["iid"], ["solqc"] or ["wetlab"]. *)

val of_name : string -> t option

val create : t -> error_rate:float -> Channel.t
