// a shift by four billion bits
assign out = in & (1'b1 << 4000000000);
endmodule
