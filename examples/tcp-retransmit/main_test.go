package main

// Example pins what the program prints: both vendors' retransmission
// schedules, bounds and close reasons.
func Example() {
	main()
	// Output:
	// SunOS 4.1.3:
	//   retransmissions: 12
	//   backoff gaps:    3.00s 6.00s 12.00s 24.00s 48.00s 64.00s 64.00s 64.00s 64.00s 64.00s 64.00s
	//   upper bound:     64s
	//   reset sent:      true
	//   close reason:    retransmission limit
	//
	// Solaris 2.3:
	//   retransmissions: 9
	//   backoff gaps:    0.66s 1.32s 2.64s 5.28s 10.56s 21.12s 42.24s 84.48s
	//   upper bound:     none established before the close
	//   reset sent:      false
	//   close reason:    retransmission limit (global error counter)
}
