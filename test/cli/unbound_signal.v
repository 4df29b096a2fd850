// `z` is never declared: elaborates, then fails to compile (exit 6).
module top(input clk, output [7:0] y);
  assign y = z + 8'd1;
endmodule
