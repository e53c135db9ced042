(** Descriptive statistics of RSN netlists, for reports and sanity checks. *)

type t = {
  segments : int;
  muxes : int;
  scan_bits : int;          (** total shift-register flops *)
  shadow_bits : int;        (** total shadow flops *)
  control_bits : int;       (** shadow bits driving mux addresses *)
  primary_controls : int;   (** distinct primary control inputs *)
  levels : int;             (** hierarchy depth *)
  min_seg_len : int;
  max_seg_len : int;
  mean_seg_len : float;
  reset_path_segments : int;
  reset_path_bits : int;    (** shift cycles of a reset-configuration CSU *)
  full_path_bits : int;
      (** shift cycles with every mux steered to its highest-numbered
          sensitizable selection (the "everything spliced in" bound for
          SIB-style networks) *)
}

val compute : Netlist.t -> t
