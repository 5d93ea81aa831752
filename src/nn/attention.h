// Attention primitives: causal self-attention (with optional additive
// relation bias — the hook IAAB uses) and cross-attention (used by TAAD).

#pragma once

#include "nn/layers.h"
#include "nn/module.h"

namespace stisan::nn {

/// Builds an [n, n] additive causal mask: 0 on/below the diagonal, -1e9
/// strictly above (prevents information leakage, paper §III-D). Memoised per
/// length behind a mutex — callers share one gradient-free tensor and must
/// not mutate it. Only the composed reference path needs it; the fused
/// kernel applies causality by loop bounds.
Tensor BuildCausalMask(int64_t n);

/// Single-head scaled dot-product self-attention with a causal mask
/// (paper eq. 5-6 with R = 0):
///   A = Softmax(Q K^T / sqrt(d) + mask [+ bias]) V
///
/// The optional `bias` is an [n, n] additive term applied inside the
/// softmax; passing the softmax-scaled spatial-temporal relation matrix here
/// turns this layer into the paper's Interval Aware Attention Layer. Biases
/// that require grad (e.g. TiSASRec's learned bucket bias) receive
/// gradients through either lowering.
///
/// Lowering: by default the whole softmax(qkᵀ·scale + mask + bias)v chain
/// runs as one ops::FusedAttention node; ops::SetFusedAttentionEnabled(0)
/// selects the composed per-op reference path, which tests and benchmarks
/// use as the oracle. Both produce bit-identical outputs and gradients.
class CausalSelfAttention : public Module {
 public:
  /// `causal` = false disables the built-in causal mask (bidirectional
  /// attention, e.g. Bert4Rec); any masking must then come via `bias`.
  /// `identity_init_values` initialises W_V to the identity so the
  /// attention output starts as a plain attention-weighted average of the
  /// (normed) inputs — content-meaningful from the first step, which lets
  /// additive biases like IAAB's relation matrix act immediately.
  /// `num_heads` > 1 splits queries/keys/values into independent heads
  /// (dim must be divisible); the paper's models are single-head.
  CausalSelfAttention(int64_t dim, float dropout, Rng& rng,
                      bool causal = true, bool identity_init_values = false,
                      int64_t num_heads = 1);

  /// x: [n, d] or a padded batch [b, n, d]. bias: [n, n], [b, n, n], or
  /// undefined. Returns the same rank as x. Batched rows run through the
  /// same row-wise kernels as the 2-D path, so per-sequence outputs match
  /// the single-sequence forward exactly.
  Tensor Forward(const Tensor& x, const Tensor& bias, Rng& rng) const;

  /// Returns the post-softmax attention map [n, n] (no dropout) for
  /// interpretability probes (paper Fig. 5 / Fig. 7).
  Tensor AttentionMap(const Tensor& x, const Tensor& bias) const;

  int64_t dim() const { return dim_; }
  int64_t num_heads() const { return num_heads_; }
  bool causal() const { return causal_; }

  // Projection accessors for incremental (row-at-a-time) inference: the
  // serving engine applies wq/wk/wv to a single new row and replays the
  // same fused-attention arithmetic against cached K/V rows (src/core/
  // incremental.{h,cc}). Read-only use.
  const Linear& wq() const { return wq_; }
  const Linear& wk() const { return wk_; }
  const Linear& wv() const { return wv_; }

 private:
  /// Softmax(Q K^T / sqrt(dk) + masks) V for one head's [n, dk] slices.
  Tensor HeadAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                       const Tensor& bias, int64_t n, Rng& rng,
                       bool with_dropout) const;

  int64_t dim_;
  int64_t num_heads_;
  bool causal_;
  Linear wq_;
  Linear wk_;
  Linear wv_;
  Dropout dropout_;
};

/// Cross-attention Attn(C, F, F) = Softmax(C F^T / sqrt(d)) F used by the
/// Target Aware Attention Decoder (paper eq. 10).
///
/// The optional additive mask (e.g. to hide padded history steps) is an
/// [m, n] matrix added to the logits.
class CrossAttention : public Module {
 public:
  explicit CrossAttention(int64_t dim) : dim_(dim) {}

  /// queries: [m, d], keys_values: [n, d], mask: [m, n] or undefined.
  Tensor Forward(const Tensor& queries, const Tensor& keys_values,
                 const Tensor& mask) const;

 private:
  int64_t dim_;
};

}  // namespace stisan::nn
