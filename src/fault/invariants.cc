#include "fault/invariants.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <sstream>

namespace ascoma::fault {

namespace {

class Reporter {
 public:
  explicit Reporter(InvariantReport& r) : r_(r) {}

  std::ostringstream& next() {
    ++r_.total_violations;
    buf_.str({});
    buf_.clear();
    return buf_;
  }

  void commit() {
    if (r_.violations.size() < InvariantReport::kMaxReported)
      r_.violations.push_back(buf_.str());
  }

 private:
  InvariantReport& r_;
  std::ostringstream buf_;
};

}  // namespace

std::string InvariantReport::to_string() const {
  std::ostringstream os;
  if (ok()) {
    os << "coherence invariants OK (" << blocks_checked << " blocks, "
       << pages_checked << " pages, " << nodes_checked << " nodes)";
    return os.str();
  }
  os << "coherence invariant violations: " << total_violations;
  for (const std::string& v : violations) os << "\n  " << v;
  if (total_violations > violations.size())
    os << "\n  ... (" << total_violations - violations.size() << " more)";
  return os.str();
}

InvariantReport check_coherence_invariants(
    const proto::CoherentMemory& cmem,
    std::span<const vm::PageTable* const> tables,
    std::span<const vm::PageCache* const> caches) {
  const MachineConfig& cfg = cmem.config();
  const proto::Directory& dir = cmem.directory();
  const std::uint64_t blocks = dir.total_blocks();
  const std::uint32_t bpp = cfg.blocks_per_page();
  const std::uint64_t pages = blocks / bpp;

  InvariantReport report;
  report.blocks_checked = blocks;
  report.pages_checked = pages;
  report.nodes_checked = cfg.nodes;
  Reporter out(report);

  // --- directory structure: at most one exclusive claim per block -----------
  // The owner of an exclusive entry is its lowest sharer bit, so it is in
  // range whenever the sharer bits are, and one sharer makes the copyset
  // exactly the owner.
  for (BlockId b{0}; b.value() < blocks; ++b) {
    const std::uint64_t mask = dir.sharer_mask(b);
    if (cfg.nodes < 64 && (mask >> cfg.nodes) != 0) {
      out.next() << "block " << b << ": sharer bit beyond node count ("
                 << dir.describe(b) << ")";
      out.commit();
    }
    if (dir.exclusive(b) && !std::has_single_bit(mask)) {
      out.next() << "block " << b
                 << ": exclusive owner must be the sole sharer ("
                 << dir.describe(b) << ")";
      out.commit();
    }
  }

  // --- requester-side block state against the directory, page by page ------
  // Each node's copyset mask for the page (bit i = block first + i) is built
  // from the page's directory entries, then compared with the node's
  // PageBlocks masks: S-COMA valid and fetched bits need copyset membership,
  // and on a remote page copyset membership needs a fetched bit (the page
  // flush releases exactly the fetched blocks).  An S-COMA valid bit is a
  // fetched bit of an S-COMA page, so it is reported with its fetched bit.
  std::array<std::uint64_t, MachineConfig::kMaxNodes> copyset{};
  for (VPageId p{0}; p.value() < pages; ++p) {
    const BlockId first = cfg.first_block_of_page(p);
    std::fill_n(copyset.begin(), cfg.nodes, 0);
    for (std::uint32_t i = 0; i < bpp; ++i)
      for (std::uint64_t s = dir.sharer_mask(first + i); s != 0; s &= s - 1)
        copyset[std::countr_zero(s)] |= std::uint64_t{1} << i;
    const NodeId home = cmem.home_of_page(p);
    for (NodeId n{0}; n.value() < cfg.nodes; ++n) {
      const proto::CoherentMemory::PageBlocks& pb = cmem.page_blocks(n, p);
      const std::uint64_t cs = copyset[n.value()];
      const std::uint64_t bad_scoma = cmem.scoma_valid(n, p) & ~cs;
      const std::uint64_t bad_fetched = pb.fetched & ~cs;
      const std::uint64_t bad_member = n == home ? 0 : cs & ~pb.fetched;
      for (std::uint64_t bad = bad_scoma | bad_fetched | bad_member; bad != 0;
           bad &= bad - 1) {
        const std::uint32_t i =
            static_cast<std::uint32_t>(std::countr_zero(bad));
        const std::uint64_t m = std::uint64_t{1} << i;
        const BlockId b = first + i;
        if (bad_scoma & m) {
          out.next() << "node " << n << " block " << b
                     << ": S-COMA valid bit set but node not in copyset ("
                     << dir.describe(b) << ")";
          out.commit();
        }
        if (bad_fetched & m) {
          out.next() << "node " << n << " block " << b
                     << ": fetched-state block but node not in copyset ("
                     << dir.describe(b) << ")";
          out.commit();
        }
        if (bad_member & m) {
          out.next() << "node " << n << " block " << b
                     << ": node in copyset of a remote block it has not "
                        "fetched ("
                     << dir.describe(b) << ")";
          out.commit();
        }
      }
    }
  }

  // --- residency: every locally valid copy must be in the copyset -----------
  const std::uint32_t ppn = cfg.procs_per_node;
  for (NodeId n{0}; n.value() < cfg.nodes; ++n) {
    for (std::uint32_t q = n.value() * ppn; q < (n.value() + 1) * ppn; ++q) {
      for (const LineId line : cmem.l1(q).valid_line_ids()) {
        const BlockId b = cfg.block_of_line(line);
        if (b.value() < blocks && !dir.in_copyset(b, n)) {
          out.next() << "proc " << q << " line " << line << " (block " << b
                     << "): valid L1 line but node " << n
                     << " not in copyset (" << dir.describe(b) << ")";
          out.commit();
        }
      }
    }
    for (const BlockId b : cmem.rac(n).valid_block_ids()) {
      if (b.value() < blocks && !dir.in_copyset(b, n)) {
        out.next() << "node " << n << " block " << b
                   << ": valid RAC entry but node not in copyset ("
                   << dir.describe(b) << ")";
        out.commit();
      }
    }
  }

  // --- VM: mappings, frames, and page-cache accounting -----------------------
  for (NodeId n{0}; n.value() < cfg.nodes && n.value() < tables.size() &&
                    n.value() < caches.size();
       ++n) {
    const vm::PageTable& pt = *tables[n.value()];
    const vm::PageCache& pc = *caches[n.value()];
    for (VPageId p{0}; p.value() < pages; ++p) {
      const PageMode mode = pt.mode(p);
      if (mode == PageMode::kScoma) {
        if (pt.frame(p) == kInvalidFrame) {
          out.next() << "node " << n << " page " << p
                     << ": S-COMA mapping without a frame";
          out.commit();
        }
        if (!pc.is_active(p)) {
          out.next() << "node " << n << " page " << p
                     << ": S-COMA mapping not active in the page cache";
          out.commit();
        }
      } else if (pc.is_active(p)) {
        out.next() << "node " << n << " page " << p
                   << ": active page-cache entry without an S-COMA mapping";
        out.commit();
      }
      if (mode == PageMode::kUnmapped) {
        const BlockId first = cfg.first_block_of_page(p);
        for (std::uint32_t i = 0; i < bpp; ++i) {
          if (dir.in_copyset(first + i, n)) {
            out.next() << "node " << n << " page " << p << " block "
                       << first + i
                       << ": unmapped page still in directory copyset ("
                       << dir.describe(first + i) << ")";
            out.commit();
            break;  // one violation per page is enough signal
          }
        }
      }
    }
    if (pc.free_frames() + pc.active_pages() != pc.capacity()) {
      out.next() << "node " << n << ": page-cache frame leak (capacity "
                 << pc.capacity() << ", free " << pc.free_frames()
                 << ", active " << pc.active_pages() << ")";
      out.commit();
    }
  }

  return report;
}

}  // namespace ascoma::fault
