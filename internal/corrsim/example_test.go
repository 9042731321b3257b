package corrsim_test

import (
	"fmt"

	"homesight/internal/corrsim"
)

// Two homes with the same evening rhythm at different volumes are similar
// under Definition 1, although their absolute values differ by 50x.
func ExampleMeasure_Detailed() {
	lightUser := []float64{0, 0, 1, 2, 30, 80, 60, 10}
	heavyUser := []float64{0, 0, 50, 100, 1500, 4000, 3000, 500}
	flatline := []float64{5, 5, 5, 5, 5, 5, 5, 5}

	fmt.Printf("same rhythm:  %.2f\n", corrsim.Default.Detailed(lightUser, heavyUser).Similarity)
	fmt.Printf("vs flatline:  %.2f\n", corrsim.Default.Detailed(lightUser, flatline).Similarity)
	// Output:
	// same rhythm:  1.00
	// vs flatline:  0.00
}
