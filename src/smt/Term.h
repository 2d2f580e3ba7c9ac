//===- smt/Term.h - Hash-consed terms for QF_LIA + booleans ---------------===//
///
/// \file
/// Immutable, hash-consed terms over the theory used by the verifier:
/// quantifier-free linear integer arithmetic plus propositional structure.
///
/// Design notes:
///  - Arithmetic atoms are stored *semantically*: an atom node carries a
///    canonical linear sum (sorted variables, gcd-reduced, integer-tightened
///    constants) rather than a syntax tree. Two syntactically different but
///    linearly identical atoms are therefore the same node, which makes the
///    weakest-precondition chains produced during refinement (Sec. 7.2 of the
///    paper) collapse aggressively and keeps proof automata small.
///  - Negation of a <= atom is canonicalized into another <= atom over
///    integers; only disequalities (negated equalities) survive as Not nodes.
///  - All integer variables range over the mathematical integers.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_SMT_TERM_H
#define SEQVER_SMT_TERM_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace seqver {
namespace smt {

class TermNode;
/// Terms are interned; pointer equality is semantic equality modulo the
/// canonicalizations performed at construction time.
using Term = const TermNode *;

enum class Sort : uint8_t { Bool, Int };

enum class TermKind : uint8_t {
  BoolConst, ///< true / false
  BoolVar,   ///< boolean program/prophecy variable
  IntVar,    ///< integer program variable
  AtomLe,    ///< linear sum <= 0
  AtomEq,    ///< linear sum == 0
  Not,       ///< negation (only of BoolVar / AtomEq / Iff after canon.)
  And,       ///< n-ary conjunction, flattened, sorted, deduplicated
  Or,        ///< n-ary disjunction, flattened, sorted, deduplicated
  Iff,       ///< binary boolean equivalence
};

/// A linear combination of integer variables plus a constant:
/// sum of Coeff * Var + Constant. Vars are sorted by term id and coefficients
/// are non-zero.
struct LinSum {
  std::vector<std::pair<Term, int64_t>> Terms;
  int64_t Constant = 0;

  bool isConstant() const { return Terms.empty(); }
  bool operator==(const LinSum &Other) const {
    return Constant == Other.Constant && Terms == Other.Terms;
  }
};

/// An interned term node. Nodes are created only through TermManager.
class TermNode {
public:
  TermKind kind() const { return Kind; }
  Sort sort() const { return NodeSort; }
  /// Unique, densely allocated id; later-created nodes have larger ids.
  uint32_t id() const { return Id; }

  /// For BoolConst.
  bool boolValue() const { return Value != 0; }
  /// For BoolVar / IntVar.
  const std::string &name() const { return Name; }
  /// For AtomLe / AtomEq.
  const LinSum &sum() const { return Sum; }
  /// For Not / And / Or / Iff.
  const std::vector<Term> &children() const { return Children; }
  Term child(size_t I) const { return Children[I]; }

private:
  friend class TermManager;
  TermNode() = default;

  TermKind Kind = TermKind::BoolConst;
  Sort NodeSort = Sort::Bool;
  uint32_t Id = 0;
  int64_t Value = 0;
  std::string Name;
  LinSum Sum;
  std::vector<Term> Children;
};

/// Orders terms by id, that is by creation. Ordered maps over terms use it
/// rather than pointer order, which follows the heap's allocation history:
/// keyed by id, an iteration feeds the same sequence to whatever it builds
/// (LP rows, new terms, counters) on every run.
struct TermIdLess {
  bool operator()(Term A, Term B) const { return A->id() < B->id(); }
};
template <typename V> using TermMap = std::map<Term, V, TermIdLess>;

/// Sorted small-vector map from variables to replacement values. Almost
/// every substitution binds a handful of variables (one per assignment
/// primitive), so a contiguous vector sorted by term id beats a node-based
/// std::map on every application: lookups are a branchless-friendly binary
/// search over one cache line and construction performs a single
/// allocation. Substitution application sits inside every weakest
/// precondition and semantic commutativity query, which makes this one of
/// the verifier's hottest small structures (docs/PERF.md).
template <typename V> class TermVarMap {
  struct IdLess {
    bool operator()(const std::pair<Term, V> &Entry, Term Key) const {
      return Entry.first->id() < Key->id();
    }
  };

public:
  using value_type = std::pair<Term, V>;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  const_iterator begin() const { return Entries.begin(); }
  const_iterator end() const { return Entries.end(); }
  bool empty() const { return Entries.empty(); }
  size_t size() const { return Entries.size(); }

  const_iterator find(Term Key) const {
    auto It = lowerBound(Key);
    return (It != Entries.end() && It->first == Key) ? It : Entries.end();
  }

  /// Inserts Key with a default value if absent; returns the mapped value.
  V &operator[](Term Key) {
    auto It = lowerBound(Key);
    if (It != Entries.end() && It->first == Key)
      return It->second;
    return Entries.insert(It, {Key, V{}})->second;
  }

  const V &at(Term Key) const {
    auto It = find(Key);
    assert(It != Entries.end() && "key not bound");
    return It->second;
  }

private:
  // Iterator flavors: mutation needs the non-const position.
  typename std::vector<value_type>::iterator lowerBound(Term Key) {
    return std::lower_bound(Entries.begin(), Entries.end(), Key, IdLess{});
  }
  const_iterator lowerBound(Term Key) const {
    return std::lower_bound(Entries.begin(), Entries.end(), Key, IdLess{});
  }

  std::vector<value_type> Entries;
};

/// Maps variables to replacement values; used by weakest preconditions and
/// by the commutativity checker's state renamings.
struct Substitution {
  /// Integer variable -> linear sum replacement.
  TermVarMap<LinSum> IntMap;
  /// Boolean variable -> formula replacement.
  TermVarMap<Term> BoolMap;

  bool empty() const { return IntMap.empty() && BoolMap.empty(); }
};

/// Owns and interns all terms; analogous to an LLVMContext.
///
/// Construction functions ("mk*") perform local canonicalization: constant
/// folding, gcd reduction with integer tightening of atom constants, And/Or
/// flattening with sorting, deduplication and complement detection, and
/// negation normalization.
class TermManager {
public:
  TermManager();
  TermManager(const TermManager &) = delete;
  TermManager &operator=(const TermManager &) = delete;
  ~TermManager();

  Term mkTrue() const { return TrueTerm; }
  Term mkFalse() const { return FalseTerm; }
  Term mkBool(bool Value) const { return Value ? TrueTerm : FalseTerm; }

  /// Returns the variable with this name/sort, creating it on first use.
  /// Asserts that a name is never reused at a different sort.
  Term mkVar(const std::string &Name, Sort VarSort);
  /// Returns the existing variable or nullptr.
  Term lookupVar(const std::string &Name) const;

  /// Linear-sum helpers.
  LinSum sumOfConst(int64_t Value) const;
  LinSum sumOfVar(Term Var) const;
  static LinSum sumAdd(const LinSum &A, const LinSum &B);
  static LinSum sumScale(const LinSum &A, int64_t Factor);
  static LinSum sumSub(const LinSum &A, const LinSum &B);

  /// Atom constructors over linear sums; Le means Sum <= 0, Eq means
  /// Sum == 0. Both canonicalize and may fold to true/false.
  Term mkLeZero(const LinSum &Sum);
  Term mkEqZero(const LinSum &Sum);

  /// Convenience comparisons between linear sums (integer semantics).
  Term mkLe(const LinSum &A, const LinSum &B) { return mkLeZero(sumSub(A, B)); }
  Term mkLt(const LinSum &A, const LinSum &B);
  Term mkGe(const LinSum &A, const LinSum &B) { return mkLe(B, A); }
  Term mkGt(const LinSum &A, const LinSum &B) { return mkLt(B, A); }
  Term mkEq(const LinSum &A, const LinSum &B) { return mkEqZero(sumSub(A, B)); }

  Term mkNot(Term A);
  Term mkAnd(std::vector<Term> Args);
  Term mkAnd(Term A, Term B) { return mkAnd(std::vector<Term>{A, B}); }
  Term mkOr(std::vector<Term> Args);
  Term mkOr(Term A, Term B) { return mkOr(std::vector<Term>{A, B}); }
  Term mkImplies(Term A, Term B) { return mkOr(mkNot(A), B); }
  Term mkIff(Term A, Term B);

  /// Applies Subst to Formula (capture-free; replacements are evaluated in
  /// the same state). Results are memoized per call.
  Term substitute(Term Formula, const Substitution &Subst);

  /// Collects the free variables of Formula into Vars (deduplicated).
  void collectVars(Term Formula, std::vector<Term> &Vars) const;

  /// Structural pretty printer (SMT-LIB-flavoured infix). This is the
  /// *canonical text form* of a term: persist::parseTerm accepts exactly
  /// this grammar and round-trips it back to the same interned node, and
  /// the on-disk proof cache stores predicates in it. Grammar changes
  /// must be mirrored in persist/TermIO and the cache format version
  /// bumped (docs/PERSIST.md).
  std::string str(Term Formula) const;

  /// Canonical text of a linear sum (the sum fragment of str()'s grammar).
  /// Part of the same canonical-form contract: the shared commutativity
  /// oracle keys assignment right-hand sides with it
  /// (reduction/CommutOracle.h).
  std::string strSum(const LinSum &Sum) const;

  /// Number of interned nodes (monotone; used by tests and stats).
  size_t numTerms() const { return Nodes.size(); }

private:
  Term intern(TermNode &&Node);

  std::vector<std::unique_ptr<TermNode>> Nodes;
  std::unordered_map<std::string, Term> VarByName;
  std::unordered_map<uint64_t, std::vector<Term>> Buckets;
  Term TrueTerm = nullptr;
  Term FalseTerm = nullptr;
};

} // namespace smt
} // namespace seqver

#endif // SEQVER_SMT_TERM_H
