// a 20,001-bit value printed in decimal: 6,021 digits, more than
// Python's default str(int) limit of 4,300
reg [20000:0] r;
initial begin
  r = 0;
  r = ~r;
  $display("%d", r);
end
assign out = in;
endmodule
