package sim

import (
	"fmt"

	"repro/internal/xrand"
)

// Outcome is the fate of one elementary exchange under a loss model.
type Outcome uint8

// Exchange outcomes.
const (
	// Full applies the merge at both peers — the lossless push-pull
	// exchange of Figure 1.
	Full Outcome = iota
	// ResponderOnly applies the merge at the responder j only: the
	// initiating push arrived but the reply was lost, the asymmetric
	// failure that violates mass conservation (§2, experiment E6).
	ResponderOnly
	// Dropped skips the exchange entirely: the initiating message was
	// lost and neither peer changes state.
	Dropped
)

// LossModel decides each exchange's outcome. Draw is called exactly
// once per elementary step, before the merge; implementations must
// consume the RNG deterministically so that runs stay reproducible.
type LossModel interface {
	Draw(rng *xrand.Rand) Outcome
	// Name labels the model in experiment output.
	Name() string
}

// NoLoss is the paper's lossless communication assumption. It never
// touches the RNG.
type NoLoss struct{}

var _ LossModel = NoLoss{}

// Draw implements LossModel.
func (NoLoss) Draw(*xrand.Rand) Outcome { return Full }

// Name implements LossModel.
func (NoLoss) Name() string { return "none" }

// SymmetricLoss drops a whole exchange with probability P — the
// zero-time event model's loss, which cannot lose only half an
// exchange. With P ≤ 0 it consumes no randomness.
type SymmetricLoss struct {
	P float64
}

var _ LossModel = SymmetricLoss{}

// Draw implements LossModel (one Bool draw when P > 0).
func (l SymmetricLoss) Draw(rng *xrand.Rand) Outcome {
	if rng.Bool(l.P) {
		return Dropped
	}
	return Full
}

// Name implements LossModel.
func (l SymmetricLoss) Name() string { return fmt.Sprintf("symmetric-%.3f", l.P) }

// ReplyLoss is the deployed protocol's asymmetric push-pull loss: with
// probability P the initiating message is dropped (the step is a
// no-op), otherwise with probability P the reply is dropped, in which
// case only the responder applies the merge. With P ≤ 0 it consumes
// no randomness.
type ReplyLoss struct {
	P float64
}

var _ LossModel = ReplyLoss{}

// Draw implements LossModel (up to two Bool draws when P > 0, in the
// historical order: request first, then reply).
func (l ReplyLoss) Draw(rng *xrand.Rand) Outcome {
	if rng.Bool(l.P) {
		return Dropped
	}
	if rng.Bool(l.P) {
		return ResponderOnly
	}
	return Full
}

// Name implements LossModel.
func (l ReplyLoss) Name() string { return fmt.Sprintf("reply-%.3f", l.P) }
