//===- ocl/Preprocessor.cpp - Minimal C preprocessor -------------------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ocl/Preprocessor.h"

#include "support/StringUtils.h"

#include <cassert>
#include <cctype>
#include <cstdlib>
#include <unordered_set>

using namespace clgen;
using namespace clgen::ocl;

std::string ocl::stripComments(const std::string &Source) {
  std::string Out;
  Out.reserve(Source.size());
  size_t I = 0;
  while (I < Source.size()) {
    char C = Source[I];
    if (C == '/' && I + 1 < Source.size() && Source[I + 1] == '/') {
      while (I < Source.size() && Source[I] != '\n')
        ++I;
      continue;
    }
    if (C == '/' && I + 1 < Source.size() && Source[I + 1] == '*') {
      I += 2;
      while (I + 1 < Source.size() &&
             !(Source[I] == '*' && Source[I + 1] == '/')) {
        if (Source[I] == '\n')
          Out += '\n'; // Preserve line structure.
        ++I;
      }
      I = I + 2 <= Source.size() ? I + 2 : Source.size();
      Out += ' ';
      continue;
    }
    if (C == '"') {
      // Copy string literals verbatim so "//" inside them survives.
      Out += C;
      ++I;
      while (I < Source.size() && Source[I] != '"' && Source[I] != '\n') {
        if (Source[I] == '\\' && I + 1 < Source.size()) {
          Out += Source[I];
          ++I;
        }
        Out += Source[I];
        ++I;
      }
      if (I < Source.size()) {
        Out += Source[I];
        ++I;
      }
      continue;
    }
    Out += C;
    ++I;
  }
  return Out;
}

namespace {

struct Macro {
  bool FunctionLike = false;
  std::vector<std::string> Params;
  std::string Body;
};

class PreprocessorImpl {
public:
  PreprocessorImpl(const std::string &Source, const PreprocessOptions &Opts)
      : Opts(Opts) {
    for (const auto &[Name, Body] : Opts.Predefined) {
      Macro M;
      M.Body = Body;
      Macros[Name] = M;
    }
    Text = spliceLines(stripComments(Source));
  }

  Result<std::string> run() {
    std::string Out;
    if (!processText(Text, Out, /*Depth=*/0))
      return Result<std::string>::error(Error);
    if (!CondStack.empty())
      return Result<std::string>::error("unterminated #if block");
    return Out;
  }

private:
  const PreprocessOptions &Opts;
  std::string Text;
  std::unordered_map<std::string, Macro> Macros;
  std::string Error;

  struct CondState {
    bool ParentActive;
    bool ThisActive;
    bool AnyTaken;
  };
  std::vector<CondState> CondStack;

  bool fail(const std::string &Message) {
    if (Error.empty())
      Error = Message;
    return false;
  }

  static std::string spliceLines(std::string In) {
    return replaceAll(std::move(In), "\\\n", " ");
  }

  bool active() const {
    for (const CondState &S : CondStack)
      if (!S.ThisActive)
        return false;
    return true;
  }

  bool processText(const std::string &In, std::string &Out, int Depth) {
    if (Depth > 16)
      return fail("include nesting too deep");
    for (const std::string &Line : splitLines(In)) {
      std::string_view Trimmed = trim(Line);
      if (!Trimmed.empty() && Trimmed[0] == '#') {
        if (!processDirective(std::string(Trimmed.substr(1)), Out, Depth))
          return false;
        Out += '\n';
        continue;
      }
      if (!active()) {
        Out += '\n';
        continue;
      }
      std::string Expanded;
      if (!expandMacros(Line, Expanded, 0))
        return false;
      Out += Expanded;
      Out += '\n';
    }
    return true;
  }

  //===--------------------------------------------------------------------===//
  // Directives
  //===--------------------------------------------------------------------===//

  bool processDirective(const std::string &Directive, std::string &Out,
                        int Depth) {
    std::string_view Rest = trim(Directive);
    std::string Keyword;
    size_t I = 0;
    while (I < Rest.size() &&
           (std::isalpha(static_cast<unsigned char>(Rest[I])) ||
            Rest[I] == '_'))
      Keyword += Rest[I++];
    std::string_view Args = trim(Rest.substr(I));

    if (Keyword == "define") {
      if (active())
        return handleDefine(std::string(Args));
      return true;
    }
    if (Keyword == "undef") {
      if (active())
        Macros.erase(std::string(trim(Args)));
      return true;
    }
    if (Keyword == "ifdef" || Keyword == "ifndef") {
      bool Defined = Macros.count(std::string(trim(Args))) != 0;
      bool Take = Keyword == "ifdef" ? Defined : !Defined;
      pushCond(Take);
      return true;
    }
    if (Keyword == "if") {
      long Value = 0;
      if (active() && !evalCondition(std::string(Args), Value))
        return false;
      pushCond(Value != 0);
      return true;
    }
    if (Keyword == "elif") {
      if (CondStack.empty())
        return fail("#elif without #if");
      CondState &S = CondStack.back();
      if (S.AnyTaken) {
        S.ThisActive = false;
        return true;
      }
      long Value = 0;
      if (S.ParentActive && !evalCondition(std::string(Args), Value))
        return false;
      S.ThisActive = Value != 0;
      S.AnyTaken |= S.ThisActive;
      return true;
    }
    if (Keyword == "else") {
      if (CondStack.empty())
        return fail("#else without #if");
      CondState &S = CondStack.back();
      S.ThisActive = !S.AnyTaken;
      S.AnyTaken = true;
      return true;
    }
    if (Keyword == "endif") {
      if (CondStack.empty())
        return fail("#endif without #if");
      CondStack.pop_back();
      return true;
    }
    if (Keyword == "include") {
      if (!active())
        return true;
      return handleInclude(std::string(Args), Out, Depth);
    }
    if (Keyword == "pragma" || Keyword == "line" || Keyword == "warning")
      return true; // Accepted and ignored.
    if (Keyword == "error") {
      if (active())
        return fail("#error directive: " + std::string(Args));
      return true;
    }
    // Unknown directive: tolerate (GitHub content files contain noise).
    return true;
  }

  void pushCond(bool Take) {
    CondState S;
    S.ParentActive = active();
    S.ThisActive = Take;
    S.AnyTaken = Take;
    CondStack.push_back(S);
  }

  bool handleDefine(const std::string &Args) {
    size_t I = 0;
    std::string Name;
    while (I < Args.size() &&
           (std::isalnum(static_cast<unsigned char>(Args[I])) ||
            Args[I] == '_'))
      Name += Args[I++];
    if (Name.empty())
      return fail("malformed #define");

    Macro M;
    if (I < Args.size() && Args[I] == '(') {
      // Function-like: no space between name and '('.
      M.FunctionLike = true;
      ++I;
      std::string Param;
      while (I < Args.size() && Args[I] != ')') {
        if (Args[I] == ',') {
          M.Params.push_back(std::string(trim(Param)));
          Param.clear();
        } else {
          Param += Args[I];
        }
        ++I;
      }
      if (I >= Args.size())
        return fail("unterminated macro parameter list");
      ++I; // ')'
      if (!trim(Param).empty())
        M.Params.push_back(std::string(trim(Param)));
    }
    M.Body = std::string(trim(Args.substr(I)));
    Macros[Name] = M;
    return true;
  }

  bool handleInclude(const std::string &Args, std::string &Out, int Depth) {
    std::string_view A = trim(Args);
    if (A.size() < 2)
      return true;
    char Open = A[0];
    char Close = Open == '<' ? '>' : '"';
    if (Open != '<' && Open != '"')
      return true;
    size_t End = A.find(Close, 1);
    if (End == std::string_view::npos)
      return true;
    std::string Path(A.substr(1, End - 1));
    // Resolve by basename against the in-memory header map.
    size_t Slash = Path.find_last_of('/');
    std::string Base =
        Slash == std::string::npos ? Path : Path.substr(Slash + 1);
    auto It = Opts.Includes.find(Base);
    if (It == Opts.Includes.end())
      It = Opts.Includes.find(Path);
    if (It == Opts.Includes.end())
      return true; // Unknown header: skip (may surface as sema errors).
    return processText(spliceLines(stripComments(It->second)), Out,
                       Depth + 1);
  }

  //===--------------------------------------------------------------------===//
  // Conditional expressions
  //===--------------------------------------------------------------------===//

  /// Evaluates a #if expression after macro expansion. Undefined
  /// identifiers evaluate to 0, as in C.
  bool evalCondition(const std::string &Raw, long &Value) {
    std::string Expanded;
    // defined(X) must be handled before macro expansion.
    std::string WithDefined = resolveDefined(Raw);
    if (!expandMacros(WithDefined, Expanded, 0))
      return false;
    const char *P = Expanded.c_str();
    bool Ok = true;
    Value = parseCondOr(P, Ok);
    if (!Ok)
      return fail("malformed #if expression: " + Raw);
    return true;
  }

  std::string resolveDefined(const std::string &In) {
    std::string Out;
    size_t I = 0;
    while (I < In.size()) {
      if (In.compare(I, 7, "defined") == 0 &&
          (I + 7 == In.size() ||
           !std::isalnum(static_cast<unsigned char>(In[I + 7])))) {
        size_t J = I + 7;
        while (J < In.size() &&
               std::isspace(static_cast<unsigned char>(In[J])))
          ++J;
        bool Paren = J < In.size() && In[J] == '(';
        if (Paren)
          ++J;
        while (J < In.size() &&
               std::isspace(static_cast<unsigned char>(In[J])))
          ++J;
        std::string Name;
        while (J < In.size() &&
               (std::isalnum(static_cast<unsigned char>(In[J])) ||
                In[J] == '_'))
          Name += In[J++];
        if (Paren) {
          while (J < In.size() &&
                 std::isspace(static_cast<unsigned char>(In[J])))
            ++J;
          if (J < In.size() && In[J] == ')')
            ++J;
        }
        Out += Macros.count(Name) ? "1" : "0";
        I = J;
        continue;
      }
      Out += In[I++];
    }
    return Out;
  }

  // Tiny recursive-descent evaluator for integer #if expressions.
  static void skipWs(const char *&P) {
    while (*P == ' ' || *P == '\t')
      ++P;
  }
  long parseCondPrimary(const char *&P, bool &Ok) {
    skipWs(P);
    if (*P == '(') {
      ++P;
      long V = parseCondOr(P, Ok);
      skipWs(P);
      if (*P == ')')
        ++P;
      else
        Ok = false;
      return V;
    }
    if (*P == '!') {
      ++P;
      return !parseCondPrimary(P, Ok);
    }
    if (*P == '-') {
      ++P;
      return -parseCondPrimary(P, Ok);
    }
    if (std::isdigit(static_cast<unsigned char>(*P))) {
      char *End = nullptr;
      long V = std::strtol(P, &End, 0);
      // Skip integer suffixes.
      while (*End == 'u' || *End == 'U' || *End == 'l' || *End == 'L')
        ++End;
      P = End;
      return V;
    }
    if (std::isalpha(static_cast<unsigned char>(*P)) || *P == '_') {
      // Undefined identifier -> 0.
      while (std::isalnum(static_cast<unsigned char>(*P)) || *P == '_')
        ++P;
      return 0;
    }
    Ok = false;
    return 0;
  }
  long parseCondMul(const char *&P, bool &Ok) {
    long V = parseCondPrimary(P, Ok);
    for (;;) {
      skipWs(P);
      if (*P == '*') {
        ++P;
        V *= parseCondPrimary(P, Ok);
      } else if (*P == '/' ) {
        ++P;
        long R = parseCondPrimary(P, Ok);
        V = R ? V / R : 0;
      } else if (*P == '%') {
        ++P;
        long R = parseCondPrimary(P, Ok);
        V = R ? V % R : 0;
      } else {
        return V;
      }
    }
  }
  long parseCondAdd(const char *&P, bool &Ok) {
    long V = parseCondMul(P, Ok);
    for (;;) {
      skipWs(P);
      if (*P == '+') {
        ++P;
        V += parseCondMul(P, Ok);
      } else if (*P == '-') {
        ++P;
        V -= parseCondMul(P, Ok);
      } else {
        return V;
      }
    }
  }
  long parseCondRel(const char *&P, bool &Ok) {
    long V = parseCondAdd(P, Ok);
    for (;;) {
      skipWs(P);
      if (P[0] == '<' && P[1] == '=') {
        P += 2;
        V = V <= parseCondAdd(P, Ok);
      } else if (P[0] == '>' && P[1] == '=') {
        P += 2;
        V = V >= parseCondAdd(P, Ok);
      } else if (P[0] == '<' && P[1] != '<') {
        ++P;
        V = V < parseCondAdd(P, Ok);
      } else if (P[0] == '>' && P[1] != '>') {
        ++P;
        V = V > parseCondAdd(P, Ok);
      } else if (P[0] == '=' && P[1] == '=') {
        P += 2;
        V = V == parseCondAdd(P, Ok);
      } else if (P[0] == '!' && P[1] == '=') {
        P += 2;
        V = V != parseCondAdd(P, Ok);
      } else {
        return V;
      }
    }
  }
  long parseCondAnd(const char *&P, bool &Ok) {
    long V = parseCondRel(P, Ok);
    for (;;) {
      skipWs(P);
      if (P[0] == '&' && P[1] == '&') {
        P += 2;
        long R = parseCondRel(P, Ok);
        V = V && R;
      } else {
        return V;
      }
    }
  }
  long parseCondOr(const char *&P, bool &Ok) {
    long V = parseCondAnd(P, Ok);
    for (;;) {
      skipWs(P);
      if (P[0] == '|' && P[1] == '|') {
        P += 2;
        long R = parseCondAnd(P, Ok);
        V = V || R;
      } else {
        return V;
      }
    }
  }

  //===--------------------------------------------------------------------===//
  // Macro expansion
  //===--------------------------------------------------------------------===//

  bool expandMacros(const std::string &In, std::string &Out, int Depth) {
    if (Depth > 32)
      return fail("macro expansion too deep (recursive macro?)");
    Out.clear();
    size_t I = 0;
    while (I < In.size()) {
      char C = In[I];
      if (!(std::isalpha(static_cast<unsigned char>(C)) || C == '_')) {
        Out += C;
        ++I;
        continue;
      }
      std::string Name;
      while (I < In.size() &&
             (std::isalnum(static_cast<unsigned char>(In[I])) ||
              In[I] == '_'))
        Name += In[I++];
      auto It = Macros.find(Name);
      if (It == Macros.end()) {
        Out += Name;
        continue;
      }
      const Macro &M = It->second;
      if (!M.FunctionLike) {
        std::string Expanded;
        // Temporarily hide the macro to avoid self-recursion.
        Macro Saved = M;
        Macros.erase(Name);
        bool Ok = expandMacros(Saved.Body, Expanded, Depth + 1);
        Macros[Name] = Saved;
        if (!Ok)
          return false;
        Out += Expanded;
        continue;
      }
      // Function-like: require '(' (otherwise leave the name alone).
      size_t J = I;
      while (J < In.size() &&
             std::isspace(static_cast<unsigned char>(In[J])))
        ++J;
      if (J >= In.size() || In[J] != '(') {
        Out += Name;
        continue;
      }
      // Collect arguments with balanced parentheses.
      ++J;
      std::vector<std::string> Args;
      std::string Arg;
      int ParenDepth = 1;
      while (J < In.size() && ParenDepth > 0) {
        char A = In[J];
        if (A == '(')
          ++ParenDepth;
        if (A == ')') {
          --ParenDepth;
          if (ParenDepth == 0)
            break;
        }
        if (A == ',' && ParenDepth == 1) {
          Args.push_back(Arg);
          Arg.clear();
        } else {
          Arg += A;
        }
        ++J;
      }
      if (ParenDepth != 0)
        return fail("unterminated macro invocation of '" + Name + "'");
      ++J; // ')'
      if (!Arg.empty() || !Args.empty())
        Args.push_back(Arg);
      if (Args.size() != M.Params.size())
        return fail("macro '" + Name + "' wrong argument count");
      I = J;

      std::string Substituted = substituteParams(M, Args);
      std::string Expanded;
      Macro Saved = M;
      Macros.erase(Name);
      bool Ok = expandMacros(Substituted, Expanded, Depth + 1);
      Macros[Name] = Saved;
      if (!Ok)
        return false;
      Out += Expanded;
    }
    return true;
  }

  static std::string substituteParams(const Macro &M,
                                      const std::vector<std::string> &Args) {
    std::string Out;
    const std::string &Body = M.Body;
    size_t I = 0;
    while (I < Body.size()) {
      char C = Body[I];
      if (!(std::isalpha(static_cast<unsigned char>(C)) || C == '_')) {
        Out += C;
        ++I;
        continue;
      }
      std::string Word;
      while (I < Body.size() &&
             (std::isalnum(static_cast<unsigned char>(Body[I])) ||
              Body[I] == '_'))
        Word += Body[I++];
      bool Replaced = false;
      for (size_t PI = 0; PI < M.Params.size(); ++PI) {
        if (M.Params[PI] == Word) {
          Out += '(';
          Out += trim(Args[PI]);
          Out += ')';
          Replaced = true;
          break;
        }
      }
      if (!Replaced)
        Out += Word;
    }
    return Out;
  }
};

} // namespace

Result<std::string> ocl::preprocess(const std::string &Source,
                                    const PreprocessOptions &Opts) {
  PreprocessorImpl Impl(Source, Opts);
  return Impl.run();
}
