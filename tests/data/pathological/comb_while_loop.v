// a zero-delay loop that never exits, in a combinational block
reg r;
always @(*) begin
  while (1) r = in;
end
assign out = in;
endmodule
