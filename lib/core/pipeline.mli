(** End-to-end fault-tolerant synthesis (fig. 1 of the paper): dataflow
    graph extraction, connectivity augmentation, final synthesis, and the
    evaluation artefacts of Table I. *)

type result = {
  original : Ftrsn_rsn.Netlist.t;
  ft : Ftrsn_rsn.Netlist.t;            (** the fault-tolerant RSN *)
  augmentation : Augment.solution;
  syn_stats : Synthesis.stats;
  orig_area : Area.report;
  ft_area : Area.report;
  area_ratios : Area.ratios;
}

val synthesize :
  ?options:Synthesis.options -> Ftrsn_rsn.Netlist.t -> result
(** Runs the augmentation ({!Augment.solve}, min-cost flow) and the final
    synthesis, verifying on the way that the augmented graph meets the
    connectivity requirements and that the fault-tolerant netlist still
    validates and preserves the reset path.
    @raise Augment.Infeasible if some degree demand cannot be met (does not
    happen for well-formed SIB-based RSNs).
    @raise Failure if a verification fails. *)
