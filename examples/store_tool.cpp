//===- examples/store_tool.cpp - clgen-store lifecycle CLI --------------------===//
//
// `clgen-store`: inspection and lifecycle management for any artifact
// store directory (training snapshots, synthesis kernel sets, result
// caches — anything made of `.clgs` archives):
//
//   clgen-store ls DIR                    list entries (kind, size, checksum)
//   clgen-store stat DIR                  aggregate stats + manifest summary
//   clgen-store verify DIR                validate every entry's container
//   clgen-store gc DIR --max-bytes N      LRU-evict down to N bytes,
//            [--dry-run]                  quarantine corrupt entries,
//                                         publish the sweep manifest
//   clgen-store vacuum DIR                purge quarantine/, stale temp
//                                         files and abandoned lock files
//                                         (held locks skipped: live-safe)
//   clgen-store failures DIR              list a failure-ledger directory:
//                                         key, trap class, attempts,
//                                         diagnostic (sorted, byte-stable)
//   clgen-store stats DIR                 dry-run sweep + the process
//                                         metrics registry exposition
//
// The subcommands are thin wrappers over store::scanStore/sweep/vacuum
// and the byte-stable formatters in store/Lifecycle.h — the golden
// tests in tests/store/LifecycleTest.cpp cover the exact output bytes.
//
// Exit codes: 0 success; 1 operational failure (unreadable directory,
// failed sweep); 2 usage error; 3 = `verify` found corrupt entries.
//
//===----------------------------------------------------------------------===//

#include "store/FailureLedger.h"
#include "store/Lifecycle.h"
#include "support/Metrics.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace clgen;

namespace {

void printUsage(std::FILE *Out) {
  std::fprintf(
      Out,
      "usage: clgen-store <subcommand> DIR [options]\n"
      "\n"
      "subcommands:\n"
      "  ls DIR                    list entries: kind, size on disk,\n"
      "                            checksum, name (sorted, byte-stable)\n"
      "  stat DIR                  aggregate counts/bytes by kind plus\n"
      "                            the last sweep manifest, if any\n"
      "  verify DIR                validate every entry's container\n"
      "                            (magic/version/size/checksum); exit 3\n"
      "                            when corruption is found\n"
      "  gc DIR [--max-bytes N] [--dry-run]\n"
      "                            sweep: quarantine corrupt entries and\n"
      "                            LRU-evict (oldest mtime first) until\n"
      "                            live bytes fit N (0/absent = no byte\n"
      "                            budget, validate only). --dry-run\n"
      "                            prints the plan and touches nothing.\n"
      "                            Surviving entries are bit-identical\n"
      "                            to before the sweep, always.\n"
      "  vacuum DIR                delete quarantined files, stale .tmp.\n"
      "                            files and abandoned lock files. Safe\n"
      "                            with live store users: a lock a live\n"
      "                            process holds is skipped, not deleted\n"
      "  failures DIR              list a failure-ledger directory (see\n"
      "                            store/FailureLedger.h): one line per\n"
      "                            known-bad kernel — key, trap class,\n"
      "                            attempts, diagnostic. Corrupt entries\n"
      "                            are skipped (use verify for integrity)\n"
      "  stats DIR                 plan a dry-run sweep of DIR, then print\n"
      "                            the process metrics registry exposition\n"
      "                            (support/Metrics.h) it populated —\n"
      "                            clgen.sweep.* counters and anything\n"
      "                            else this process recorded. Touches\n"
      "                            nothing on disk\n"
      "  help                      this text\n");
}

int runLs(const std::string &Dir) {
  auto Entries = store::scanStore(Dir);
  if (!Entries.ok()) {
    std::fprintf(stderr, "clgen-store ls: %s\n",
                 Entries.errorMessage().c_str());
    return 1;
  }
  std::fputs(store::formatLs(Entries.get()).c_str(), stdout);
  return 0;
}

int runStat(const std::string &Dir) {
  auto Entries = store::scanStore(Dir);
  if (!Entries.ok()) {
    std::fprintf(stderr, "clgen-store stat: %s\n",
                 Entries.errorMessage().c_str());
    return 1;
  }
  auto M = store::loadManifest(Dir);
  std::fputs(store::formatStat(Entries.get(),
                               store::quarantineCount(Dir),
                               M.ok() ? &M.get() : nullptr)
                 .c_str(),
             stdout);
  return 0;
}

int runVerify(const std::string &Dir) {
  auto Entries = store::scanStore(Dir);
  if (!Entries.ok()) {
    std::fprintf(stderr, "clgen-store verify: %s\n",
                 Entries.errorMessage().c_str());
    return 1;
  }
  std::fputs(store::formatVerify(Entries.get()).c_str(), stdout);
  for (const auto &E : Entries.get())
    if (!E.Valid)
      return 3;
  return 0;
}

int runGc(const std::string &Dir, uint64_t MaxBytes, bool DryRun) {
  store::SweepPolicy Policy;
  Policy.MaxBytes = MaxBytes;
  Policy.DryRun = DryRun;
  auto Report = store::sweep(Dir, Policy);
  if (!Report.ok()) {
    std::fprintf(stderr, "clgen-store gc: %s\n",
                 Report.errorMessage().c_str());
    return 1;
  }
  std::fputs(store::formatSweepReport(Report.get(), DryRun).c_str(),
             stdout);
  return 0;
}

int runVacuum(const std::string &Dir) {
  auto Report = store::vacuum(Dir);
  if (!Report.ok()) {
    std::fprintf(stderr, "clgen-store vacuum: %s\n",
                 Report.errorMessage().c_str());
    return 1;
  }
  const store::VacuumReport &R = Report.get();
  std::printf("vacuum: removed %zu quarantined (%llu bytes), %zu temp "
              "files, %zu lock files (%zu held locks skipped)\n",
              R.QuarantineRemoved,
              static_cast<unsigned long long>(R.QuarantineBytes),
              R.TempRemoved, R.LocksRemoved, R.LocksSkipped);
  return 0;
}

int runStats(const std::string &Dir) {
  store::SweepPolicy Policy;
  Policy.DryRun = true;
  auto Report = store::sweep(Dir, Policy);
  if (!Report.ok()) {
    std::fprintf(stderr, "clgen-store stats: %s\n",
                 Report.errorMessage().c_str());
    return 1;
  }
  std::fputs(support::MetricsRegistry::renderText({}).c_str(), stdout);
  return 0;
}

int runFailures(const std::string &Dir) {
  auto Records = store::listFailures(Dir);
  std::fputs(store::formatFailures(Records).c_str(), stdout);
  std::printf("%zu recorded failure%s\n", Records.size(),
              Records.size() == 1 ? "" : "s");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    printUsage(stderr);
    return 2;
  }
  std::string Sub = Argv[1];
  if (Sub == "help" || Sub == "--help" || Sub == "-h") {
    printUsage(stdout);
    return 0;
  }
  if (Argc < 3) {
    std::fprintf(stderr, "clgen-store %s: missing store directory\n\n",
                 Sub.c_str());
    printUsage(stderr);
    return 2;
  }
  std::string Dir = Argv[2];

  if (Sub == "ls" && Argc == 3)
    return runLs(Dir);
  if (Sub == "stat" && Argc == 3)
    return runStat(Dir);
  if (Sub == "verify" && Argc == 3)
    return runVerify(Dir);
  if (Sub == "vacuum" && Argc == 3)
    return runVacuum(Dir);
  if (Sub == "failures" && Argc == 3)
    return runFailures(Dir);
  if (Sub == "stats" && Argc == 3)
    return runStats(Dir);
  if (Sub == "gc") {
    uint64_t MaxBytes = 0;
    bool DryRun = false;
    for (int I = 3; I < Argc; ++I) {
      std::string Arg = Argv[I];
      if (Arg == "--dry-run") {
        DryRun = true;
      } else if (Arg == "--max-bytes" && I + 1 < Argc) {
        std::string Text = Argv[++I];
        if (Text.empty() ||
            Text.find_first_not_of("0123456789") != std::string::npos) {
          std::fprintf(stderr,
                       "clgen-store gc: --max-bytes expects a "
                       "non-negative integer\n");
          return 2;
        }
        MaxBytes = std::strtoull(Text.c_str(), nullptr, 10);
      } else {
        std::fprintf(stderr, "clgen-store gc: unknown option: %s\n",
                     Arg.c_str());
        return 2;
      }
    }
    return runGc(Dir, MaxBytes, DryRun);
  }

  std::fprintf(stderr, "clgen-store: unknown subcommand or arguments\n\n");
  printUsage(stderr);
  return 2;
}
