// a memory of a billion entries
reg [7:0] mem [0:999999999];
initial mem[999999999] = 8'hff;
assign out = in & mem[999999999][0];
endmodule
