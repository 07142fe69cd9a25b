#include "common/config.hh"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "common/rng.hh"

namespace ascoma {

const char* to_string(ArchModel m) {
  switch (m) {
    case ArchModel::kCcNuma: return "CCNUMA";
    case ArchModel::kScoma: return "SCOMA";
    case ArchModel::kRNuma: return "RNUMA";
    case ArchModel::kVcNuma: return "VCNUMA";
    case ArchModel::kAsComa: return "ASCOMA";
  }
  return "?";
}

bool parse_arch_model(const std::string& name, ArchModel* out) {
  std::string s;
  s.reserve(name.size());
  for (char c : name) {
    if (c == '-' || c == '_') continue;
    s.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (s == "ccnuma" || s == "numa") *out = ArchModel::kCcNuma;
  else if (s == "scoma" || s == "coma") *out = ArchModel::kScoma;
  else if (s == "rnuma") *out = ArchModel::kRNuma;
  else if (s == "vcnuma") *out = ArchModel::kVcNuma;
  else if (s == "ascoma") *out = ArchModel::kAsComa;
  else return false;
  return true;
}

namespace {
bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

std::uint32_t MachineConfig::net_stages() const {
  std::uint32_t stages = 1;
  std::uint64_t reach = switch_arity;
  while (reach < nodes) {
    reach *= switch_arity;
    ++stages;
  }
  return stages;
}

Cycle MachineConfig::net_one_way_latency() const {
  const std::uint32_t s = net_stages();
  return net_interface_cycles + s * net_fall_through +
         (s + 1) * net_propagation + net_port_occupancy +
         net_interface_cycles;
}

std::uint64_t MachineConfig::component_seed(std::uint64_t tag) const {
  return tag == kSeedStreamWorkload ? seed : mix64(seed, tag);
}

std::uint64_t MachineConfig::effective_fault_seed() const {
  return fault_seed != 0 ? fault_seed : component_seed(kSeedStreamFault);
}

std::string MachineConfig::validate() const {
  std::ostringstream err;
  if (nodes == 0) err << "nodes must be > 0; ";
  if (nodes > kMaxNodes)
    err << "nodes must be <= " << kMaxNodes
        << " (one sharer bit per node in a u64 directory entry); ";
  if (procs_per_node == 0 || procs_per_node > 16)
    err << "procs_per_node must be in [1, 16]; ";
  if (!is_pow2(page_bytes.value())) err << "page_bytes must be a power of two; ";
  if (!is_pow2(block_bytes.value())) err << "block_bytes must be a power of two; ";
  if (!is_pow2(line_bytes.value())) err << "line_bytes must be a power of two; ";
  if ((block_bytes % line_bytes) != ByteCount{0}) err << "block_bytes % line_bytes != 0; ";
  if ((page_bytes % block_bytes) != ByteCount{0}) err << "page_bytes % block_bytes != 0; ";
  if (blocks_per_page() > kMaxBlocksPerPage)
    err << "page_bytes / block_bytes must be <= " << kMaxBlocksPerPage
        << " (one bit per block in a u64 page mask); ";
  if ((l1_bytes % line_bytes) != ByteCount{0}) err << "l1_bytes % line_bytes != 0; ";
  if (!is_pow2(l1_lines())) err << "L1 line count must be a power of two; ";
  if ((rac_bytes % block_bytes) != ByteCount{0}) err << "rac_bytes % block_bytes != 0; ";
  if (rac_entries() != 0 && !is_pow2(rac_entries()))
    err << "RAC entry count must be 0 or a power of two; ";
  if (!is_pow2(dram_banks)) err << "dram_banks must be a power of two; ";
  if (switch_arity < 2) err << "switch_arity must be >= 2; ";
  // Floating-point ranges are written as !(in range) so that NaN, which
  // fails every comparison, is rejected too.
  if (!(memory_pressure > 0.0 && memory_pressure <= 1.0))
    err << "memory_pressure must be in (0, 1]; ";
  if (!(free_min_frac >= 0.0 && free_min_frac < 1.0))
    err << "free_min_frac must be in [0, 1); ";
  if (!(free_target_frac >= free_min_frac))
    err << "free_target_frac must be >= free_min_frac; ";
  if (!(free_target_frac < 1.0)) err << "free_target_frac must be < 1; ";
  if (refetch_threshold == 0) err << "refetch_threshold must be > 0; ";
  if (threshold_max < refetch_threshold)
    err << "threshold_max must be >= refetch_threshold; ";
  if (!(daemon_backoff_factor >= 1.0))
    err << "daemon_backoff_factor must be >= 1; ";
  if (vcnuma_break_even == 0) err << "vcnuma_break_even must be > 0; ";
  if (!(vcnuma_eval_replacements > 0.0))
    err << "vcnuma_eval_replacements must be > 0; ";
  if (!blocking_stores && store_buffer_entries == 0)
    err << "store buffer needs at least one entry; ";
  auto prob_ok = [](double p) { return p >= 0.0 && p <= 1.0; };
  if (!prob_ok(fault_drop)) err << "fault_drop must be in [0, 1]; ";
  if (!prob_ok(fault_dup)) err << "fault_dup must be in [0, 1]; ";
  if (!prob_ok(fault_jitter)) err << "fault_jitter must be in [0, 1]; ";
  if (fault_jitter > 0.0 && fault_jitter_cycles == Cycles{0})
    err << "fault_jitter_cycles must be > 0 when jitter is enabled; ";
  if (retry_timeout == Cycles{0}) err << "retry_timeout must be > 0; ";
  if (retry_backoff_base == Cycles{0}) err << "retry_backoff_base must be > 0; ";
  if (retry_backoff_max < retry_backoff_base)
    err << "retry_backoff_max must be >= retry_backoff_base; ";
  if (retry_max_attempts == 0) err << "retry_max_attempts must be > 0; ";
  return err.str();
}

}  // namespace ascoma
