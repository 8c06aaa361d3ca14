// A minimal define-by-run reverse-mode automatic differentiation tape.
//
// The paper's software stack (Fig. 2a) has three layers: low-level OPs,
// automatic gradient derivation, and optimization engines. The production
// placement ops implement their backward passes by hand for speed (as
// DREAMPlace's CUDA ops do), so this tape lives with the tests, where it
// is the gradient oracle: the WA and LSE closed-form gradients are
// checked against tape-differentiated versions of the same formulas
// ("write the forward, get the backward", as PyTorch offers).
//
// Usage:
//   Tape tape;
//   Var x = tape.variable(2.0);
//   Var y = tape.variable(3.0);
//   Var f = exp(x * y) + x / y;
//   tape.backward(f);
//   tape.grad(x);  // df/dx
//
// Vars are lightweight handles (tape index + pointer); all state lives in
// the tape, which must outlive its Vars. One backward() per forward build;
// call tape.clear() to reuse.
#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "common/log.h"

namespace dreamplace::autograd {

class Tape;

/// Handle to a node on the tape.
class Var {
 public:
  Var() = default;

  double value() const;

 private:
  friend class Tape;
  friend Var operator+(Var a, Var b);
  friend Var operator-(Var a, Var b);
  friend Var operator*(Var a, Var b);
  friend Var operator/(Var a, Var b);
  friend Var operator+(Var a, double b);
  friend Var operator-(Var a, double b);
  friend Var operator*(Var a, double b);
  friend Var operator/(Var a, double b);
  friend Var operator+(double a, Var b);
  friend Var operator-(double a, Var b);
  friend Var operator*(double a, Var b);
  friend Var operator-(Var a);
  friend Var exp(Var a);
  friend Var log(Var a);
  friend Var sqrt(Var a);
  friend Var maximum(Var a, Var b);
  friend Var minimum(Var a, Var b);
  friend Var sum(std::span<const Var> vars);

  Var(Tape* tape, std::size_t index) : tape_(tape), index_(index) {}

  Tape* tape_ = nullptr;
  std::size_t index_ = 0;
};

class Tape {
 public:
  /// Creates a leaf variable with gradient tracking.
  Var variable(double value) { return {this, addNode(value)}; }

  /// Creates a constant (gradient flows through but is usually unread).
  Var constant(double value) { return {this, addNode(value)}; }

  double value(Var v) const { return nodes_[v.index_].value; }

  /// Gradient of the last backward() root with respect to `v`.
  double grad(Var v) const { return nodes_[v.index_].grad; }

  /// Reverse pass seeding d(root)/d(root) = 1. Gradients accumulate into
  /// every node reachable from the root; leaves keep them for grad().
  void backward(Var root) {
    for (Node& node : nodes_) {
      node.grad = 0.0;
    }
    nodes_[root.index_].grad = 1.0;
    // Nodes are created in topological order, so a reverse sweep suffices.
    for (std::size_t i = nodes_.size(); i-- > 0;) {
      const Node& node = nodes_[i];
      if (node.grad == 0.0) {
        continue;
      }
      for (int k = 0; k < node.arity; ++k) {
        nodes_[node.parent[k]].grad += node.grad * node.partial[k];
      }
    }
  }

  void clear() { nodes_.clear(); }
  std::size_t size() const { return nodes_.size(); }

 private:
  friend class Var;
  friend Var operator+(Var a, Var b);
  friend Var operator-(Var a, Var b);
  friend Var operator*(Var a, Var b);
  friend Var operator/(Var a, Var b);
  friend Var operator+(Var a, double b);
  friend Var operator-(Var a, double b);
  friend Var operator*(Var a, double b);
  friend Var operator/(Var a, double b);
  friend Var operator+(double a, Var b);
  friend Var operator-(double a, Var b);
  friend Var operator*(double a, Var b);
  friend Var operator-(Var a);
  friend Var exp(Var a);
  friend Var log(Var a);
  friend Var sqrt(Var a);
  friend Var maximum(Var a, Var b);
  friend Var minimum(Var a, Var b);
  friend Var sum(std::span<const Var> vars);

  struct Node {
    double value = 0.0;
    double grad = 0.0;
    int arity = 0;
    std::size_t parent[2] = {0, 0};
    double partial[2] = {0.0, 0.0};
  };

  std::size_t addNode(double value) {
    nodes_.push_back(Node{value, 0.0, 0, {0, 0}, {0.0, 0.0}});
    return nodes_.size() - 1;
  }

  std::size_t addUnary(double value, std::size_t parent, double partial) {
    Node node{value, 0.0, 1, {parent, 0}, {partial, 0.0}};
    nodes_.push_back(node);
    return nodes_.size() - 1;
  }

  std::size_t addBinary(double value, std::size_t pa, double da,
                        std::size_t pb, double db) {
    Node node{value, 0.0, 2, {pa, pb}, {da, db}};
    nodes_.push_back(node);
    return nodes_.size() - 1;
  }

  std::vector<Node> nodes_;
};

inline double Var::value() const { return tape_->value(*this); }

// --- Operators ------------------------------------------------------------

inline Var operator+(Var a, Var b) {
  DP_ASSERT(a.tape_ == b.tape_);
  Tape* t = a.tape_;
  return {t, t->addBinary(t->value(a) + t->value(b), a.index_, 1.0,
                          b.index_, 1.0)};
}

inline Var operator-(Var a, Var b) {
  DP_ASSERT(a.tape_ == b.tape_);
  Tape* t = a.tape_;
  return {t, t->addBinary(t->value(a) - t->value(b), a.index_, 1.0,
                          b.index_, -1.0)};
}

inline Var operator*(Var a, Var b) {
  DP_ASSERT(a.tape_ == b.tape_);
  Tape* t = a.tape_;
  return {t, t->addBinary(t->value(a) * t->value(b), a.index_, t->value(b),
                          b.index_, t->value(a))};
}

inline Var operator/(Var a, Var b) {
  DP_ASSERT(a.tape_ == b.tape_);
  Tape* t = a.tape_;
  const double vb = t->value(b);
  const double va = t->value(a);
  return {t, t->addBinary(va / vb, a.index_, 1.0 / vb, b.index_,
                          -va / (vb * vb))};
}

inline Var operator+(Var a, double b) {
  Tape* t = a.tape_;
  return {t, t->addUnary(t->value(a) + b, a.index_, 1.0)};
}
inline Var operator+(double a, Var b) { return b + a; }

inline Var operator-(Var a, double b) {
  Tape* t = a.tape_;
  return {t, t->addUnary(t->value(a) - b, a.index_, 1.0)};
}
inline Var operator-(double a, Var b) {
  Tape* t = b.tape_;
  return {t, t->addUnary(a - t->value(b), b.index_, -1.0)};
}
inline Var operator-(Var a) { return 0.0 - a; }

inline Var operator*(Var a, double b) {
  Tape* t = a.tape_;
  return {t, t->addUnary(t->value(a) * b, a.index_, b)};
}
inline Var operator*(double a, Var b) { return b * a; }

inline Var operator/(Var a, double b) { return a * (1.0 / b); }

inline Var exp(Var a) {
  Tape* t = a.tape_;
  const double v = std::exp(t->value(a));
  return {t, t->addUnary(v, a.index_, v)};
}

inline Var log(Var a) {
  Tape* t = a.tape_;
  return {t, t->addUnary(std::log(t->value(a)), a.index_,
                         1.0 / t->value(a))};
}

inline Var sqrt(Var a) {
  Tape* t = a.tape_;
  const double v = std::sqrt(t->value(a));
  return {t, t->addUnary(v, a.index_, 0.5 / v)};
}

/// Smooth-free max: subgradient convention d/da = 1 when a >= b.
inline Var maximum(Var a, Var b) {
  DP_ASSERT(a.tape_ == b.tape_);
  Tape* t = a.tape_;
  const bool left = t->value(a) >= t->value(b);
  return {t, t->addBinary(std::max(t->value(a), t->value(b)), a.index_,
                          left ? 1.0 : 0.0, b.index_, left ? 0.0 : 1.0)};
}

inline Var minimum(Var a, Var b) {
  DP_ASSERT(a.tape_ == b.tape_);
  Tape* t = a.tape_;
  const bool left = t->value(a) <= t->value(b);
  return {t, t->addBinary(std::min(t->value(a), t->value(b)), a.index_,
                          left ? 1.0 : 0.0, b.index_, left ? 0.0 : 1.0)};
}

/// Balanced-tree sum of a span of Vars.
inline Var sum(std::span<const Var> vars) {
  DP_ASSERT(!vars.empty());
  Var acc = vars[0];
  for (std::size_t i = 1; i < vars.size(); ++i) {
    acc = acc + vars[i];
  }
  return acc;
}

}  // namespace dreamplace::autograd
