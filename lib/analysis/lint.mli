(** A small structural linter over the Verilog subset.

    Where the lib/core tools localize bugs after their symptoms appear,
    the linter flags the statically-visible shapes of the study's
    mechanical subclasses before synthesis:

    - [unused]: declared but never read or written;
    - [undriven]: read but never driven (the failure-to-initialize
      flavor of section 3.2.5);
    - [multiple-drivers]: a register assigned from several always
      blocks;
    - [truncation]: a right-hand side statically wider than its target
      (section 3.2.2);
    - [overflow-prone]: a non-power-of-two structure indexed by an
      expression wide enough to exceed it — such accesses are silently
      dropped (section 3.2.1);
    - [incomplete-case]: a case statement covering neither every value
      nor a default (the incomplete-implementation shape, 3.4.3). *)

type severity = Warning | Error

type finding = {
  severity : severity;
  rule : string;
  signal : string;
  message : string;
}

val finding_to_string : finding -> string

val rules :
  (string * severity * (Fpga_hdl.Ast.module_def -> (string * string) list))
  list
(** Every rule as (name, declared severity, check). A check reports
    (signal, message) pairs; {!check} turns each into a finding with the
    rule's name and declared severity, so a rule's findings always carry
    that severity. Only [undriven] and [multiple-drivers] are declared
    [Error]: a gate that keeps only [Error] findings (the fuzz validity
    gate) can pass just those two as [~only]. *)

val check : ?only:string list -> Fpga_hdl.Ast.module_def -> finding list
(** Run all rules (or the named subset) over one module. Findings come
    sorted and deduplicated, so a subset yields exactly the unrestricted
    findings of those rules, in the same order. *)

val check_design :
  ?only:string list -> Fpga_hdl.Ast.design -> (string * finding list) list
(** {!check} on every module, in design order. *)
