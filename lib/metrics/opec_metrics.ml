(** Evaluation metrics: over-privilege values (PT/ET), security metrics,
    overhead accounting, icall-analysis efficiency, and table rendering. *)

module Var_size = Var_size
module Overprivilege = Overprivilege
module Security_eval = Security_eval
module Icall_eval = Icall_eval
module Overhead = Overhead
module Report = Report
