// `a` and `b` feed each other through continuous assigns (exit 5).
module top(input clk, output [7:0] y);
  wire [7:0] a;
  wire [7:0] b;
  assign a = b + 8'd1;
  assign b = a;
  assign y = a;
endmodule
