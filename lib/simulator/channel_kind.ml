type t = Iid | Solqc | Wetlab

let all = [ Iid; Solqc; Wetlab ]
let name = function Iid -> "iid" | Solqc -> "solqc" | Wetlab -> "wetlab"
let of_name s = List.find_opt (fun k -> name k = s) all

let create kind ~error_rate =
  match kind with
  | Iid -> Iid_channel.create_rate ~error_rate
  | Solqc -> Solqc_channel.create_rate ~error_rate
  | Wetlab ->
      Wetlab_channel.create
        ~params:{ Wetlab_channel.default_params with base_error = error_rate }
        ()
