//===- persist/Fingerprint.cpp - Canonical program fingerprint ------------===//

#include "persist/Fingerprint.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

using namespace seqver;
using namespace seqver::persist;
using seqver::smt::Term;

std::string Fingerprint::hex() const {
  char Buf[33];
  std::snprintf(Buf, sizeof(Buf), "%016llx%016llx",
                static_cast<unsigned long long>(Hi),
                static_cast<unsigned long long>(Lo));
  return Buf;
}

bool Fingerprint::fromHex(const std::string &Text, Fingerprint &Out) {
  if (Text.size() != 32)
    return false;
  uint64_t Parts[2] = {0, 0};
  for (int Half = 0; Half < 2; ++Half) {
    for (int I = 0; I < 16; ++I) {
      char C = Text[static_cast<size_t>(Half * 16 + I)];
      uint64_t Digit;
      if (C >= '0' && C <= '9')
        Digit = static_cast<uint64_t>(C - '0');
      else if (C >= 'a' && C <= 'f')
        Digit = static_cast<uint64_t>(C - 'a') + 10;
      else
        return false;
      Parts[Half] = (Parts[Half] << 4) | Digit;
    }
  }
  Out.Hi = Parts[0];
  Out.Lo = Parts[1];
  return true;
}

namespace {

/// Structural tokens fed to the hash. Every aggregate is preceded by a tag
/// and its length, so concatenations cannot alias ("1,23" vs "12,3").
enum class Tag : uint64_t {
  Format = 1, ///< format-version salt
  Globals,
  Global,
  Spec,
  Threads,
  Thread,
  Location,
  Edge,
  Action,
  Prim,
  TermBoolConst,
  TermVar,
  TermAtom,
  TermJunction,
  Sum,
};

/// The tagged token stream of fingerprintProgram, fed into a DualMixer.
/// Also owns the canonical variable numbering: variables are assigned
/// dense indices in first-encounter order along the caller's traversal,
/// which makes the stream invariant to renaming.
class Hasher {
public:
  void word(uint64_t W) { Mixer.word(W); }
  void tag(Tag T) { word(static_cast<uint64_t>(T)); }

  uint32_t varId(Term Var) {
    auto [It, Inserted] =
        VarIds.emplace(Var, static_cast<uint32_t>(VarIds.size()));
    (void)Inserted;
    return It->second;
  }

  void term(Term T) {
    switch (T->kind()) {
    case smt::TermKind::BoolConst:
      tag(Tag::TermBoolConst);
      word(T->boolValue() ? 1 : 0);
      return;
    case smt::TermKind::BoolVar:
    case smt::TermKind::IntVar:
      tag(Tag::TermVar);
      word(T->kind() == smt::TermKind::BoolVar ? 0 : 1);
      word(varId(T));
      return;
    case smt::TermKind::AtomLe:
    case smt::TermKind::AtomEq:
      tag(Tag::TermAtom);
      word(T->kind() == smt::TermKind::AtomLe ? 0 : 1);
      sum(T->sum());
      return;
    case smt::TermKind::Not:
    case smt::TermKind::And:
    case smt::TermKind::Or:
    case smt::TermKind::Iff:
      tag(Tag::TermJunction);
      word(static_cast<uint64_t>(T->kind()));
      word(T->children().size());
      for (Term Child : T->children())
        term(Child);
      return;
    }
  }

  void sum(const smt::LinSum &S) {
    tag(Tag::Sum);
    word(static_cast<uint64_t>(S.Constant));
    word(S.Terms.size());
    for (const auto &[Var, Coeff] : S.Terms) {
      word(varId(Var));
      word(static_cast<uint64_t>(Coeff));
    }
  }

  Fingerprint result() const { return Mixer.result(); }

private:
  DualMixer Mixer;
  std::unordered_map<Term, uint32_t> VarIds;
};

void hashAction(Hasher &H, const prog::Action &A) {
  // Name and Letter are diagnostic/bookkeeping identities (source text,
  // global parse index); the semantics live entirely in ThreadId + Prims.
  H.tag(Tag::Action);
  H.word(static_cast<uint64_t>(A.ThreadId));
  H.word(A.Prims.size());
  for (const prog::Prim &P : A.Prims) {
    H.tag(Tag::Prim);
    H.word(static_cast<uint64_t>(P.K));
    switch (P.K) {
    case prog::Prim::Kind::Assume:
      H.term(P.Guard);
      break;
    case prog::Prim::Kind::AssignInt:
      H.word(H.varId(P.Var));
      H.sum(P.IntValue);
      break;
    case prog::Prim::Kind::AssignBool:
      H.word(H.varId(P.Var));
      H.term(P.BoolValue);
      break;
    case prog::Prim::Kind::Havoc:
      H.word(H.varId(P.Var));
      break;
    }
  }
}

} // namespace

Fingerprint
seqver::persist::fingerprintProgram(const prog::ConcurrentProgram &P) {
  Hasher H;
  H.tag(Tag::Format);
  H.word(1); // fingerprint format version; bump on any stream change

  // Globals first, in declaration order: this pins canonical indices 0..n-1
  // to the declared variables before any action payload is walked, and
  // binds each index to its initialization semantics.
  H.tag(Tag::Globals);
  H.word(P.globals().size());
  const smt::Assignment &Init = P.initialValues();
  for (Term G : P.globals()) {
    H.tag(Tag::Global);
    H.word(H.varId(G));
    H.word(G->kind() == smt::TermKind::BoolVar ? 0 : 1);
    bool Constrained = P.isGlobalConstrained(G);
    H.word(Constrained ? 1 : 0);
    if (Constrained) {
      if (G->kind() == smt::TermKind::BoolVar)
        H.word(Init.boolValue(G) ? 1 : 0);
      else
        H.word(static_cast<uint64_t>(Init.intValue(G)));
    }
  }

  H.tag(Tag::Spec);
  H.term(P.preCondition());
  H.term(P.postCondition());

  // Per-thread CFGs. Location numbers are parser-assigned but stable under
  // renaming (the traversal of the same AST shape allocates them in the
  // same order), and edges are stored sorted by letter, i.e. in source
  // order — also rename-stable. Letters themselves are hashed via a dense
  // first-occurrence numbering so that edge sharing (one action on two
  // edges) is distinguished from duplicated payloads.
  H.tag(Tag::Threads);
  H.word(static_cast<uint64_t>(P.numThreads()));
  std::unordered_map<automata::Letter, uint32_t> LetterIds;
  for (int T = 0; T < P.numThreads(); ++T) {
    const prog::ThreadCfg &Cfg = P.thread(T);
    H.tag(Tag::Thread);
    H.word(Cfg.numLocations());
    H.word(Cfg.InitialLoc);
    for (prog::Location L = 0; L < Cfg.numLocations(); ++L) {
      H.tag(Tag::Location);
      H.word(Cfg.IsErrorLoc[L] ? 1 : 0);
      H.word(Cfg.Edges[L].size());
      for (const auto &[Letter, To] : Cfg.Edges[L]) {
        auto [It, Inserted] = LetterIds.emplace(
            Letter, static_cast<uint32_t>(LetterIds.size()));
        H.tag(Tag::Edge);
        H.word(It->second);
        H.word(To);
        if (Inserted)
          hashAction(H, P.action(Letter));
      }
    }
  }
  return H.result();
}

std::vector<std::string>
seqver::persist::programVariableNames(const prog::ConcurrentProgram &P) {
  std::vector<Term> Vars(P.globals().begin(), P.globals().end());
  const smt::TermManager &TM = P.termManager();
  TM.collectVars(P.preCondition(), Vars);
  TM.collectVars(P.postCondition(), Vars);
  for (const prog::Action &A : P.actions()) {
    Vars.insert(Vars.end(), A.Reads.begin(), A.Reads.end());
    Vars.insert(Vars.end(), A.Writes.begin(), A.Writes.end());
    for (const prog::Prim &Pr : A.Prims)
      if (Pr.Var)
        Vars.push_back(Pr.Var);
  }
  std::vector<std::string> Names;
  Names.reserve(Vars.size());
  for (Term V : Vars)
    Names.push_back(V->name());
  std::sort(Names.begin(), Names.end());
  Names.erase(std::unique(Names.begin(), Names.end()), Names.end());
  return Names;
}
