// a loop of two billion iterations at time 0
integer i;
reg r;
initial begin
  for (i = 0; i < 2000000000; i = i + 1) r = in;
end
assign out = in;
endmodule
