package main

// Example pins what the program prints: the views before, under and after
// the partition.
func Example() {
	main()
	// Output:
	// --- after startup: one group (t=2m0s)
	//   compsun1: gen=7 {compsun1 compsun2 compsun3 compsun4 compsun5}  <- leader
	//   compsun2: gen=7 {compsun1 compsun2 compsun3 compsun4 compsun5}
	//   compsun3: gen=7 {compsun1 compsun2 compsun3 compsun4 compsun5}
	//   compsun4: gen=7 {compsun1 compsun2 compsun3 compsun4 compsun5}
	//   compsun5: gen=7 {compsun1 compsun2 compsun3 compsun4 compsun5}
	//
	// >>> partitioning {compsun1-3} | {compsun4,5}
	// --- under partition: two disjoint groups (t=4m0s)
	//   compsun1: gen=8 {compsun1 compsun2 compsun3}  <- leader
	//   compsun2: gen=8 {compsun1 compsun2 compsun3}
	//   compsun3: gen=8 {compsun1 compsun2 compsun3}
	//   compsun4: gen=8 {compsun4 compsun5}  <- leader
	//   compsun5: gen=8 {compsun4 compsun5}
	//
	// >>> healing the partition
	// --- after heal: merged back into one group (t=7m0s)
	//   compsun1: gen=10 {compsun1 compsun2 compsun3 compsun4 compsun5}  <- leader
	//   compsun2: gen=10 {compsun1 compsun2 compsun3 compsun4 compsun5}
	//   compsun3: gen=10 {compsun1 compsun2 compsun3 compsun4 compsun5}
	//   compsun4: gen=10 {compsun1 compsun2 compsun3 compsun4 compsun5}
	//   compsun5: gen=10 {compsun1 compsun2 compsun3 compsun4 compsun5}
}
