// A well-formed design, driven by the malformed stimulus files below.
module top(input clk, input [7:0] d, output [7:0] q);
  reg [7:0] r;
  assign q = r;
  always @(posedge clk) r <= r + d;
endmodule
