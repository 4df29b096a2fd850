// The assign lacks its `;`: a syntax error on line 4 (exit 3).
module top(input clk, output [7:0] y);
  assign y = 8'd1
endmodule
