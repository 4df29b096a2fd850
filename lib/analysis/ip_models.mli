(** Data-path model of the closed-source IP blocks (section 5 of the
    paper): [scfifo], [dcfifo] and [altsyncram], the three IPs the
    testbed uses, mirroring the paper's artifact. The port roles come
    from {!Fpga_hdl.Ast.ip_ports}; the Dependency Monitor and LossCheck
    each build their own edges or relations from the one data path. *)

type data_path = {
  data : Fpga_hdl.Ast.expr;  (** the actual connected to the data input *)
  write : Fpga_hdl.Ast.expr;
      (** when a word is stored: the write enable, and for a FIFO with
          its full flag connected, [write && !full] *)
  q : string;  (** the net the data output drives *)
}

val data_path : Fpga_hdl.Ast.instance -> data_path option
(** The data path of a builtin IP instance; [None] for any other target,
    or when the data input is unconnected or the data output does not
    drive a plain identifier. *)
