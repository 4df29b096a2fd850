// Executes $finish in its fifth cycle (cycle 4): a run of more cycles
// stops there.
module top(input clk, output [3:0] q);
  reg [3:0] n;
  assign q = n;
  always @(posedge clk) begin
    n <= n + 1;
    if (n == 4) $finish;
  end
endmodule
