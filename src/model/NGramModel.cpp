//===- model/NGramModel.cpp - Backoff n-gram language model -------------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "model/NGramModel.h"

#include "store/Archive.h"

#include <algorithm>
#include <cassert>
#include <new>
#include <numeric>
#include <string_view>

#include <sys/mman.h>

using namespace clgen;
using namespace clgen::model;

namespace {

/// Allocator of ContextCounter's arrays, the largest scratch of training.
/// A block of MappedBytes or more is mapped from the OS on its own and
/// unmapped when freed, so growing and dropping the counts neither
/// reuses nor leaves holes in the malloc heap. In the heap, where those
/// blocks landed depended on how the threaded corpus ingest had
/// interleaved earlier allocations, and a process that trains six
/// models in a row peaked anywhere between 31.6 and 35.3 MB.
template <typename T> struct PageAllocator {
  using value_type = T;
  /// Below this a block comes from operator new: a mapping is whole
  /// pages, and at 64 KiB the rounding wastes under 7%.
  static constexpr size_t MappedBytes = size_t{64} << 10;

  PageAllocator() = default;
  template <typename U> PageAllocator(const PageAllocator<U> &) {}

  T *allocate(size_t N) {
    if (N > SIZE_MAX / sizeof(T))
      throw std::bad_array_new_length();
    size_t Bytes = N * sizeof(T);
    if (Bytes < MappedBytes)
      return static_cast<T *>(::operator new(Bytes));
    void *P = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (P == MAP_FAILED)
      throw std::bad_alloc();
    return static_cast<T *>(P);
  }

  void deallocate(T *P, size_t N) noexcept {
    size_t Bytes = N * sizeof(T);
    if (Bytes < MappedBytes)
      ::operator delete(P);
    else
      ::munmap(P, Bytes);
  }

  template <typename U> bool operator==(const PageAllocator<U> &) const {
    return true;
  }
};

template <typename T> using PageVector = std::vector<T, PageAllocator<T>>;

} // namespace

/// Every context train stores is a substring of one corpus entry, so the
/// set of contexts is closed under prefixes and suffixes: the trie has
/// exactly one node per context, and the suffix link of a node (its
/// context without the first character) is a node too. Nodes are
/// numbered in preorder with children in unsigned-char order, which is
/// the std::string order of their contexts; node 0 is the empty context.
struct clgen::model::ContextTrie {
  // Per node.
  std::vector<uint32_t> Link;  ///< Node of the context minus its first
                               ///< character (the root's is itself).
  std::vector<uint32_t> Depth; ///< Context length.
  /// Children: edges FirstEdge[N] to FirstEdge[N + 1], one extra slot.
  std::vector<uint32_t> FirstEdge;
  /// Counts: entries FirstEntry[N] to FirstEntry[N + 1], one extra slot.
  std::vector<uint32_t> FirstEntry;
  /// Sum of the node's counts: an integer, held exactly in a double.
  std::vector<double> Total;
  // Per edge, sorted by character within a node.
  std::vector<uint8_t> EdgeChar;
  std::vector<uint32_t> EdgeChild;
  // Per (token id, count) entry, sorted by id within a node. A
  // vocabulary has at most 256 tokens.
  std::vector<uint8_t> EntryId;
  std::vector<uint32_t> EntryCount;

  size_t nodes() const { return Depth.size(); }

  /// The child of \p N on \p C, or 0: the root is nobody's child.
  uint32_t child(uint32_t N, unsigned char C) const {
    const uint8_t *Begin = EdgeChar.data() + FirstEdge[N];
    const uint8_t *End = EdgeChar.data() + FirstEdge[N + 1];
    const uint8_t *It = std::lower_bound(Begin, End, C);
    return It != End && *It == C ? EdgeChild[It - EdgeChar.data()] : 0;
  }

  /// The node of the longest stored suffix of N's context + C: one
  /// Aho-Corasick step. Every stored suffix of the longer window is a
  /// stored suffix of N plus C, and the suffix links of N visit all of
  /// those, longest first.
  uint32_t step(uint32_t N, unsigned char C) const {
    for (;;) {
      if (uint32_t Child = child(N, C))
        return Child;
      if (N == 0)
        return 0;
      N = Link[N];
    }
  }
};

namespace {

/// Builds a ContextTrie from contexts in std::string order, each followed
/// by its count entries in id order: the order serialize writes. Every
/// step returns the rule its input breaks, or null.
class TrieBuilder {
public:
  TrieBuilder(size_t MaxDepth, size_t VocabSize)
      : MaxDepth(MaxDepth), VocabSize(VocabSize), Path(MaxDepth + 1, 0),
        T(std::make_shared<ContextTrie>()) {}

  const char *addContext(std::string_view Ctx) {
    size_t L = Ctx.size();
    if (L > MaxDepth)
      return "n-gram context longer than order - 1";
    if (T->nodes() == 0) {
      if (L != 0)
        return "n-gram context without its prefix";
    } else {
      if (const char *Error = closeNode())
        return Error;
      // A parent precedes its children and only its own subtree lies
      // between them, so Ctx minus its last character must be a prefix
      // of the context before it.
      size_t K = static_cast<size_t>(
          std::mismatch(Prev.begin(), Prev.end(), Ctx.begin(), Ctx.end())
              .first -
          Prev.begin());
      bool After = K < L && (K == Prev.size() ||
                             static_cast<unsigned char>(Ctx[K]) >
                                 static_cast<unsigned char>(Prev[K]));
      if (!After)
        return "n-gram contexts out of order or repeated";
      if (K + 1 < L)
        return "n-gram context without its prefix";
    }
    Path[L] = static_cast<uint32_t>(T->nodes());
    Parent.push_back(L == 0 ? 0 : Path[L - 1]);
    Char.push_back(L == 0 ? 0 : static_cast<uint8_t>(Ctx[L - 1]));
    T->Depth.push_back(static_cast<uint32_t>(L));
    T->FirstEntry.push_back(static_cast<uint32_t>(T->EntryId.size()));
    Prev.assign(Ctx);
    LastId = -1;
    Sum = 0;
    return nullptr;
  }

  const char *addEntry(int64_t Id, uint32_t Count) {
    if (Id < 0 || Id >= static_cast<int64_t>(VocabSize))
      return "n-gram count entry references a token outside the "
             "vocabulary";
    if (Id <= LastId)
      return "n-gram count entries out of order or repeated";
    if (Count == 0)
      return "n-gram count of zero";
    T->EntryId.push_back(static_cast<uint8_t>(Id));
    T->EntryCount.push_back(Count);
    LastId = Id;
    Sum += Count;
    return nullptr;
  }

  /// Lays out the edges and suffix links. \p Out stays null for an empty
  /// table.
  const char *finish(std::shared_ptr<const ContextTrie> &Out) {
    size_t N = T->nodes();
    if (N == 0)
      return nullptr;
    if (const char *Error = closeNode())
      return Error;
    T->FirstEntry.push_back(static_cast<uint32_t>(T->EntryId.size()));
    // Every node but the root is one edge of its parent, and siblings
    // arrive in character order.
    T->FirstEdge.assign(N + 1, 0);
    for (size_t Q = 1; Q < N; ++Q)
      ++T->FirstEdge[Parent[Q] + 1];
    std::partial_sum(T->FirstEdge.begin(), T->FirstEdge.end(),
                     T->FirstEdge.begin());
    T->EdgeChar.resize(N - 1);
    T->EdgeChild.resize(N - 1);
    std::vector<uint32_t> NextEdge(T->FirstEdge.begin(),
                                   T->FirstEdge.end() - 1);
    for (size_t Q = 1; Q < N; ++Q) {
      uint32_t E = NextEdge[Parent[Q]]++;
      T->EdgeChar[E] = Char[Q];
      T->EdgeChild[E] = static_cast<uint32_t>(Q);
    }
    // The link of P + C is the child of P's link on C; a parent precedes
    // its children, so its own link is already known.
    T->Link.assign(N, 0);
    for (size_t Q = 1; Q < N; ++Q) {
      uint32_t P = Parent[Q];
      if (P == 0)
        continue;
      uint32_t Suffix = T->child(T->Link[P], Char[Q]);
      if (Suffix == 0)
        return "n-gram context without its suffix";
      T->Link[Q] = Suffix;
    }
    T->Depth.shrink_to_fit();
    T->FirstEntry.shrink_to_fit();
    T->Total.shrink_to_fit();
    T->EntryId.shrink_to_fit();
    T->EntryCount.shrink_to_fit();
    Out = std::move(T);
    return nullptr;
  }

private:
  size_t MaxDepth;
  size_t VocabSize;
  /// Path[D]: the node of the previous context's prefix of length D.
  std::vector<uint32_t> Path;
  std::string Prev;
  /// Per node: its parent and the last character of its context.
  std::vector<uint32_t> Parent;
  std::vector<uint8_t> Char;
  int64_t LastId = -1;
  uint64_t Sum = 0;
  std::shared_ptr<ContextTrie> T;

  /// Seals the last node's entries.
  const char *closeNode() {
    if (T->EntryId.size() == T->FirstEntry.back())
      return "n-gram context with no count entries";
    T->Total.push_back(static_cast<double>(Sum));
    return nullptr;
  }
};

/// Counts the contexts of at most MaxDepth characters before every
/// position of the corpus in a trie numbered in the order its nodes
/// first occur. Siblings and a node's counts are kept in sorted lists,
/// so a preorder walk hands them to a TrieBuilder in its order.
class ContextCounter {
public:
  explicit ContextCounter(size_t MaxDepth)
      : MaxDepth(MaxDepth), Active(MaxDepth + 1, 0) {
    addNode(0);
  }

  /// Counts one entry followed by the end-of-text sentinel. Active[L] is
  /// the node of the L characters before position I; the next
  /// position's contexts are their children on the character at I.
  void count(const std::string &Entry, const Vocabulary &Vocab) {
    for (size_t I = 0;; ++I) {
      uint8_t Next = static_cast<uint8_t>(
          I == Entry.size() ? Vocabulary::EndOfText : Vocab.idOf(Entry[I]));
      size_t Live = std::min(MaxDepth, I);
      for (size_t L = 0; L <= Live; ++L)
        countNext(Active[L], Next);
      if (I == Entry.size())
        return;
      auto C = static_cast<uint8_t>(Entry[I]);
      for (size_t L = std::min(Live + 1, MaxDepth); L > 0; --L)
        Active[L] = childOf(Active[L - 1], C);
    }
  }

  void emit(TrieBuilder &B) const {
    if (FirstCount[0] == None)
      return; // Nothing was counted: the table is empty.
    std::string Ctx;
    std::vector<uint32_t> Ancestors;
    uint32_t N = 0;
    for (;;) {
      [[maybe_unused]] const char *Error = B.addContext(Ctx);
      assert(!Error);
      for (uint32_t K = FirstCount[N]; K != None; K = CountNext[K]) {
        Error = B.addEntry(CountId[K], CountValue[K]);
        assert(!Error);
      }
      if (FirstChild[N] != None) {
        Ancestors.push_back(N);
        N = FirstChild[N];
        Ctx.push_back(static_cast<char>(Char[N]));
        continue;
      }
      while (N != 0 && NextSibling[N] == None) {
        N = Ancestors.back();
        Ancestors.pop_back();
        Ctx.pop_back();
      }
      if (N == 0)
        return;
      N = NextSibling[N];
      Ctx.back() = static_cast<char>(Char[N]);
    }
  }

private:
  static constexpr uint32_t None = UINT32_MAX;

  size_t MaxDepth;
  std::vector<uint32_t> Active;
  // Per node.
  PageVector<uint32_t> FirstChild, NextSibling, FirstCount;
  PageVector<uint8_t> Char;
  // Per (node, token id) count.
  PageVector<uint32_t> CountNext, CountValue;
  PageVector<uint8_t> CountId;

  uint32_t addNode(uint8_t C) {
    FirstChild.push_back(None);
    NextSibling.push_back(None);
    FirstCount.push_back(None);
    Char.push_back(C);
    return static_cast<uint32_t>(Char.size() - 1);
  }

  /// The child of \p N on \p C, added in order if missing.
  uint32_t childOf(uint32_t N, uint8_t C) {
    uint32_t Before = None, Q = FirstChild[N];
    for (; Q != None && Char[Q] < C; Q = NextSibling[Q])
      Before = Q;
    if (Q != None && Char[Q] == C)
      return Q;
    uint32_t Added = addNode(C);
    NextSibling[Added] = Q;
    (Before == None ? FirstChild[N] : NextSibling[Before]) = Added;
    return Added;
  }

  void countNext(uint32_t N, uint8_t Id) {
    uint32_t Before = None, K = FirstCount[N];
    for (; K != None && CountId[K] < Id; K = CountNext[K])
      Before = K;
    if (K != None && CountId[K] == Id) {
      ++CountValue[K];
      return;
    }
    auto Added = static_cast<uint32_t>(CountId.size());
    CountId.push_back(Id);
    CountValue.push_back(1);
    CountNext.push_back(K);
    (Before == None ? FirstCount[N] : CountNext[Before]) = Added;
  }
};

} // namespace

size_t NGramModel::window() const {
  return static_cast<size_t>(std::max(Opts.Order - 1, 0));
}

void NGramModel::train(const std::vector<std::string> &Entries) {
  std::string All;
  size_t Longest = 0;
  for (const std::string &E : Entries) {
    All += E;
    Longest = std::max(Longest, E.size());
  }
  Vocab = Vocabulary::fromText(All);
  // No context is longer than its entry.
  size_t MaxDepth = std::min(window(), Longest);
  TrieBuilder Builder(MaxDepth, Vocab.size());
  {
    ContextCounter Counter(MaxDepth);
    for (const std::string &E : Entries)
      Counter.count(E, Vocab);
    Counter.emit(Builder);
  }
  Trie.reset();
  [[maybe_unused]] const char *Error = Builder.finish(Trie);
  assert(!Error);
  Memo.clear();
  reset();
}

size_t NGramModel::contextCount() const { return Trie ? Trie->nodes() : 0; }

void NGramModel::reset() {
  Node = 0;
  Fill = 0;
}

void NGramModel::observe(int TokenId) {
  // The end-of-text sentinel and tokens outside the vocabulary step on
  // '\0', as charOf renders them.
  if (Fill < window())
    ++Fill;
  if (Trie)
    Node = Trie->step(Node, static_cast<unsigned char>(Vocab.charOf(TokenId)));
}

std::vector<double> NGramModel::nextDistribution() {
  std::vector<double> Dist;
  nextDistributionInto(Dist);
  return Dist;
}

void NGramModel::nextDistributionInto(std::vector<double> &Dist) {
  size_t V = Vocab.size();
  Dist.assign(V, 0.0);

  // The cursor's node is the longest stored context that ends the
  // window; every stored context has observations. Each of the
  // Fill - Depth longer suffixes of the window is absent, and each
  // absent level discounts by BackoffAlpha, multiplied one level at a
  // time (stupid backoff).
  double ContextMass = 0.0; // Probability mass placed by the match.
  if (Trie) {
    double Scale = 1.0;
    for (size_t Skip = Fill - Trie->Depth[Node]; Skip != 0; --Skip)
      Scale *= Opts.BackoffAlpha;
    double Total = Trie->Total[Node];
    for (uint32_t E = Trie->FirstEntry[Node]; E != Trie->FirstEntry[Node + 1];
         ++E)
      Dist[Trie->EntryId[E]] +=
          Scale * static_cast<double>(Trie->EntryCount[E]) / Total;
    ContextMass = Scale;
  }

  // Unigram smoothing floor so every token has nonzero probability. The
  // pre-normalisation sum is known analytically (matched backoff mass
  // plus total smoothing mass), so flooring and normalising fuse into
  // one pass.
  double Floor = Opts.UnigramSmoothing / static_cast<double>(V);
  double InvSum = 1.0 / (ContextMass + Opts.UnigramSmoothing);
  for (double &P : Dist)
    P = (P + Floor) * InvSum;
}

int NGramModel::drawNext(double Temperature, Rng &R) {
  // A window shorter than Order - 1 backs off by its own fill as well as
  // its node, so only full windows are memoized.
  if (!Trie || Fill < window())
    return LanguageModel::drawNext(Temperature, R);
  return Memo.draw(Node, Temperature, R, [this](std::vector<double> &D) {
    NGramModel::nextDistributionInto(D);
  });
}

std::unique_ptr<LanguageModel> NGramModel::clone() const {
  return std::make_unique<NGramModel>(*this);
}

void NGramModel::serialize(store::ArchiveWriter &W) const {
  W.writeI32(Opts.Order);
  W.writeF64(Opts.BackoffAlpha);
  W.writeF64(Opts.UnigramSmoothing);
  Vocab.serialize(W);

  size_t N = contextCount();
  W.writeU64(N);
  if (!Trie)
    return;
  // Preorder is std::string order, and each context is its parent's
  // plus the character on the edge between them.
  std::vector<uint8_t> CharOf(N, 0);
  for (size_t E = 0; E < Trie->EdgeChild.size(); ++E)
    CharOf[Trie->EdgeChild[E]] = Trie->EdgeChar[E];
  std::string Ctx;
  for (size_t Q = 0; Q < N; ++Q) {
    if (Q != 0) {
      Ctx.resize(Trie->Depth[Q] - 1);
      Ctx.push_back(static_cast<char>(CharOf[Q]));
    }
    W.writeString(Ctx);
    uint32_t Begin = Trie->FirstEntry[Q], End = Trie->FirstEntry[Q + 1];
    W.writeU32(End - Begin);
    for (uint32_t E = Begin; E != End; ++E) {
      W.writeI32(Trie->EntryId[E]);
      W.writeU32(Trie->EntryCount[E]);
    }
  }
}

NGramModel NGramModel::deserialize(store::ArchiveReader &R) {
  NGramOptions Opts;
  Opts.Order = R.readI32();
  Opts.BackoffAlpha = R.readF64();
  Opts.UnigramSmoothing = R.readF64();
  if (R.ok() && (Opts.Order < 1 || Opts.Order > 256))
    R.fail("n-gram order out of range");
  if (!R.ok())
    return NGramModel();

  NGramModel M(Opts);
  M.Vocab = Vocabulary::deserialize(R);
  uint64_t ContextCount = R.readU64();
  // The trie grows with what the payload holds, and the first underrun
  // or broken rule stops the loop: a corrupt count cannot force a large
  // allocation.
  TrieBuilder Builder(M.window(), M.Vocab.size());
  for (uint64_t I = 0; I < ContextCount && R.ok(); ++I) {
    std::string Ctx = R.readString();
    uint32_t EntryCount = R.readU32();
    if (!R.ok())
      break;
    if (const char *Error = Builder.addContext(Ctx)) {
      R.fail(Error);
      break;
    }
    for (uint32_t J = 0; J < EntryCount && R.ok(); ++J) {
      int32_t Id = R.readI32();
      uint32_t Count = R.readU32();
      if (!R.ok())
        break;
      if (const char *Error = Builder.addEntry(Id, Count))
        R.fail(Error);
    }
  }
  if (R.ok())
    if (const char *Error = Builder.finish(M.Trie))
      R.fail(Error);
  if (!R.ok())
    return NGramModel();
  M.reset();
  return M;
}
