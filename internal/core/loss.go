package core

import (
	"math"

	"graphtensor/internal/tensor"
)

// SoftmaxCrossEntropySum returns the UNnormalized negative log-likelihood
// of labels under softmax(logits), summed over the labeled rows, and the
// gradient with respect to the logits scaled by 1/norm ((softmax −
// onehot)/norm), where norm is the global batch size. Rows beyond
// len(labels) — vertices sampled only as neighbors — contribute neither
// loss nor gradient. A whole batch passes norm = len(labels) and divides
// the sum by it for the mean loss; a shard holding a subset of the batch's
// dst rows computes its partial with norm = the full batch size, and
// partials folded in a fixed order then divided by norm reproduce a
// full-batch step. The gradient matrix is drawn from the tensor pool;
// callers return it with tensor.Put.
func SoftmaxCrossEntropySum(logits *tensor.Matrix, labels []int32, norm int) (float64, *tensor.Matrix) {
	n := len(labels)
	if n > logits.Rows {
		n = logits.Rows
	}
	if norm <= 0 {
		norm = 1
	}
	grad := tensor.Get(logits.Rows, logits.Cols)
	var loss float64
	for i := 0; i < n; i++ {
		row := logits.Row(i)
		// Stable softmax.
		maxV := row[0]
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxV))
		}
		logSum := math.Log(sum)
		y := int(labels[i])
		if y < 0 || y >= logits.Cols {
			y = 0
		}
		loss += logSum - float64(row[y]-maxV)
		grow := grad.Row(i)
		for j, v := range row {
			p := math.Exp(float64(v-maxV)) / sum
			grow[j] = float32(p) / float32(norm)
		}
		grow[y] -= 1 / float32(norm)
	}
	return loss, grad
}

// Accuracy returns the fraction of rows whose argmax matches the label.
func Accuracy(logits *tensor.Matrix, labels []int32) float64 {
	n := len(labels)
	if n > logits.Rows {
		n = logits.Rows
	}
	if n == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < n; i++ {
		row := logits.Row(i)
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		if int32(best) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}
