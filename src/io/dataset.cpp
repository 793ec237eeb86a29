#include "io/dataset.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace qdv::io {

std::string step_dir_name(std::size_t t) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "t%05zu", t);
  return buf;
}

struct Dataset::Impl {
  std::filesystem::path dir;
  std::size_t timesteps = 0;
  std::shared_ptr<MemoryBudget> budget;
  std::shared_ptr<IntegrityStats> integrity;
  std::shared_ptr<RangeStats> ranges;
  std::vector<std::string> variables;
  std::unordered_map<std::string, std::pair<double, double>> domains;

  mutable std::mutex mutex;
  mutable std::vector<std::shared_ptr<TimestepTable>> cache;
};

OpenOptions default_open_options() {
  OpenOptions options;
  const char* env = std::getenv("QDV_MEMORY_BUDGET");
  if (env == nullptr || *env == '\0') return options;
  std::size_t bytes = 0;
  if (!parse_size(env, bytes))
    throw std::invalid_argument(
        "QDV_MEMORY_BUDGET must be a whole number of bytes, got '" +
        std::string(env) + "'");
  if (bytes > 0) options.budget_bytes = bytes;
  return options;
}

Dataset Dataset::open(const std::filesystem::path& dir) {
  return open(dir, default_open_options());
}

Dataset Dataset::open(const std::filesystem::path& dir,
                      const OpenOptions& options) {
  auto impl = std::make_shared<Impl>();
  impl->dir = dir;
  impl->budget = std::make_shared<MemoryBudget>(options.budget_bytes);
  impl->integrity = std::make_shared<IntegrityStats>();
  impl->ranges = std::make_shared<RangeStats>();
  // The root sidecar covers the manifest — ground truth for timestep count
  // and variables, so a mismatch is a typed open failure, while a missing
  // sidecar (pre-checksum dataset) just counts as unverified.
  try {
    if (auto sums = ChecksumSet::load_dir(dir)) {
      if (const auto* sum = sums->file(kManifestName)) {
        if (crc32c_file(dir / kManifestName) != sum->crc) {
          impl->integrity->failures.fetch_add(1, std::memory_order_relaxed);
          throw IntegrityError("checksum mismatch in " +
                               (dir / kManifestName).string());
        }
        impl->integrity->verified.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      impl->integrity->unverified.fetch_add(1, std::memory_order_relaxed);
    }
  } catch (const IntegrityError&) {
    throw;
  } catch (const std::exception&) {
    // Corrupt sidecar (or the manifest is unreadable — the open below will
    // say so): record the failure, open unverified.
    impl->integrity->failures.fetch_add(1, std::memory_order_relaxed);
  }
  std::ifstream manifest(dir / kManifestName);
  if (!manifest)
    throw std::runtime_error("not a qdv dataset (no " + std::string(kManifestName) +
                             "): " + dir.string());
  for (const MetaLine& line : read_meta_lines(manifest, dir / kManifestName)) {
    const std::vector<std::string>& words = line.words;
    if (words[0] == "timesteps") {
      impl->timesteps = line.count();
    } else if (words[0] == "variables") {
      impl->variables.insert(impl->variables.end(), words.begin() + 1,
                             words.end());
    } else if (words[0] == "domain") {
      const std::pair<double, double> bounds = line.domain();  // checks words
      impl->domains[words[1]] = bounds;
    }
  }
  if (impl->timesteps == 0)
    throw std::runtime_error("manifest declares no timesteps: " + dir.string());
  // The count sizes the table cache below; an unverified manifest could
  // claim 2^40 steps, so its last step must exist before we allocate.
  const std::filesystem::path last = dir / step_dir_name(impl->timesteps - 1);
  if (!std::filesystem::is_directory(last))
    throw std::runtime_error("manifest declares " +
                             std::to_string(impl->timesteps) +
                             " timesteps but " + last.string() + " is missing");
  impl->cache.resize(impl->timesteps);
  Dataset ds;
  ds.impl_ = std::move(impl);
  return ds;
}

std::size_t Dataset::num_timesteps() const { return impl_->timesteps; }

const std::vector<std::string>& Dataset::variables() const {
  return impl_->variables;
}

const std::filesystem::path& Dataset::path() const { return impl_->dir; }

std::filesystem::path Dataset::step_dir(std::size_t t) const {
  return impl_->dir / step_dir_name(t);
}

const TimestepTable& Dataset::table(std::size_t t) const {
  if (t >= impl_->timesteps)
    throw std::out_of_range("timestep out of range: " + std::to_string(t));
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (!impl_->cache[t])
    impl_->cache[t] = std::make_shared<TimestepTable>(
        step_dir(t), impl_->budget, impl_->integrity, impl_->ranges);
  return *impl_->cache[t];
}

std::shared_ptr<TimestepTable> Dataset::open_table(std::size_t t) const {
  if (t >= impl_->timesteps)
    throw std::out_of_range("timestep out of range: " + std::to_string(t));
  return std::make_shared<TimestepTable>(
      step_dir(t), std::make_shared<MemoryBudget>(), impl_->integrity,
      impl_->ranges);
}

const std::shared_ptr<MemoryBudget>& Dataset::memory_budget() const {
  return impl_->budget;
}

const std::shared_ptr<IntegrityStats>& Dataset::integrity_stats() const {
  return impl_->integrity;
}

const std::shared_ptr<RangeStats>& Dataset::range_stats() const {
  return impl_->ranges;
}

std::pair<double, double> Dataset::global_domain(const std::string& name) const {
  const auto it = impl_->domains.find(name);
  if (it == impl_->domains.end())
    throw std::out_of_range("unknown variable '" + name + "' in manifest");
  return it->second;
}

std::uint64_t Dataset::disk_bytes() const {
  std::uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(impl_->dir))
    if (entry.is_regular_file()) total += entry.file_size();
  return total;
}

void Dataset::drop_cache() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (auto& table : impl_->cache) table.reset();
  // Residents charged by the dropped tables (and bitvectors derived from
  // them) are gone with the tables; reset the budget accounting to match.
  impl_->budget->clear();
}

}  // namespace qdv::io
