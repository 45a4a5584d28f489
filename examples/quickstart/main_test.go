package main

// Example pins what the program prints: the drop-all-ACKs filter passes
// NACK and GACK and counts three drops.
func Example() {
	main()
	// Output:
	// delivering ACK, NACK, ACK, GACK, ACK from the network:
	//   app received: NACK
	//   app received: GACK
	//
	// filter saw 5 messages, dropped 3 ACKs
}
