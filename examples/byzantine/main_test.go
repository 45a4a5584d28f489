package main

// Example pins what the program prints: the storm's committed views, the
// filter's counts and the final agreement.
func Example() {
	main()
	// Output:
	// converged: gen=3 {gmd1 gmd2 gmd3}
	//
	// faults on gmd3: corrupt (byzantine), duplicate (byzantine), reorder (timing)
	//
	// compiled byzantine filter script:
	//     if {[now] < 300000 && [coin 0.1]} {
	//     	if {[msg_len cur_msg] > 5} {
	//     		msg_set_byte cur_msg 5 [expr {[msg_byte cur_msg 5] ^ 0xFF}]
	//     	}
	//     }
	//     if {[now] < 300000 && [coin 0.1]} { xDuplicate cur_msg 1 }
	//     if {[now] < 300000 && [coin 0.1]} {
	//     	xHold cur_msg
	//     	if {[held_count] >= 2} { xReleaseLIFO }
	//     }
	//
	// committed views during the byzantine storm:
	//   gmd1 committed gen=2 {gmd1 gmd2}
	//   gmd2 committed gen=2 {gmd1 gmd2}
	//   gmd1 committed gen=3 {gmd1 gmd2 gmd3}
	//   gmd2 committed gen=3 {gmd1 gmd2 gmd3}
	//   gmd3 committed gen=3 {gmd1 gmd2 gmd3}
	//   gmd1 committed gen=4 {gmd1 gmd2}
	//   gmd2 committed gen=4 {gmd1 gmd2}
	//   gmd1 committed gen=5 {gmd1 gmd2 gmd3}
	//   gmd2 committed gen=5 {gmd1 gmd2 gmd3}
	//   gmd1 committed gen=6 {gmd1 gmd2}
	//   gmd2 committed gen=6 {gmd1 gmd2}
	//   gmd1 committed gen=7 {gmd1 gmd2 gmd3}
	//   gmd2 committed gen=7 {gmd1 gmd2 gmd3}
	//   gmd3 committed gen=7 {gmd1 gmd2 gmd3}
	//
	// gmd3 send filter: 1077 seen, 62 duplicated, 70 held/reordered
	// agreement held: every generation's multi-member view was identical everywhere
	// final views:
	//   gmd1: gen=7 {gmd1 gmd2 gmd3}
	//   gmd2: gen=7 {gmd1 gmd2 gmd3}
	//   gmd3: gen=7 {gmd1 gmd2 gmd3}
}
