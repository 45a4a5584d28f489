package main

// Example pins what the program prints: the storm's committed views, the
// filter's counts and the final agreement.
func Example() {
	main()
	// Output:
	// converged: gen=3 {gmd1 gmd2 gmd3}
	//
	// compiled byzantine send-filter script:
	//     if {[now] < 300000 && [coin 0.3]} {
	//     	switch [rand_int 3] {
	//     	0 {
	//     		set len [msg_len cur_msg]
	//     		if {$len > 0} {
	//     			msg_set_byte cur_msg [rand_int $len] [rand_int 256]
	//     		}
	//     	}
	//     	1 {
	//     		xDuplicate cur_msg 1
	//     	}
	//     	2 {
	//     		xHold cur_msg
	//     		if {[held_count] >= 2} { xReleaseLIFO }
	//     	}
	//     	}
	//     }
	//
	// committed views during the byzantine storm:
	//   gmd1 committed gen=2 {gmd1 gmd2}
	//   gmd2 committed gen=2 {gmd1 gmd2}
	//   gmd1 committed gen=3 {gmd1 gmd2 gmd3}
	//   gmd2 committed gen=3 {gmd1 gmd2 gmd3}
	//   gmd3 committed gen=3 {gmd1 gmd2 gmd3}
	//
	// gmd3 send filter: 1080 seen, 81 duplicated, 72 held/reordered
	// agreement held: every generation's multi-member view was identical everywhere
	// final views:
	//   gmd1: gen=3 {gmd1 gmd2 gmd3}
	//   gmd2: gen=3 {gmd1 gmd2 gmd3}
	//   gmd3: gen=3 {gmd1 gmd2 gmd3}
}
