// `fifo_x` is defined nowhere: an elaboration error (exit 4).
module top(input clk, output [7:0] y);
  fifo_x u0 (.clk(clk));
  assign y = 8'd0;
endmodule
