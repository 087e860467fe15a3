#include "powerlaw_db.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <tuple>
#include <unordered_map>

#include "datagen/names.h"

namespace s4::perfbench {

std::vector<int64_t> PowerlawDegrees(Rng& rng, int64_t n, int64_t min_degree,
                                     int64_t max_degree, double gamma) {
  const double e = gamma + 1.0;
  const double lo = std::pow(static_cast<double>(min_degree), e);
  const double hi = std::pow(static_cast<double>(max_degree) + 1.0, e);
  std::vector<int64_t> degrees;
  degrees.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const double u = rng.NextDouble();
    const double d = std::pow((hi - lo) * u + lo, 1.0 / e);
    degrees.push_back(std::clamp<int64_t>(static_cast<int64_t>(d),
                                          min_degree, max_degree));
  }
  std::sort(degrees.begin(), degrees.end(), std::greater<>());
  return degrees;
}

std::vector<std::pair<int32_t, int32_t>> HavelHakimiBipartite(
    const std::vector<int64_t>& left, const std::vector<int64_t>& right) {
  std::vector<int32_t> order(left.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int32_t>(i);
  std::stable_sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    return left[static_cast<size_t>(a)] > left[static_cast<size_t>(b)];
  });
  // Max-heap on (remaining capacity, -index).
  using Slot = std::pair<int64_t, int32_t>;
  std::priority_queue<Slot> heap;
  for (size_t j = 0; j < right.size(); ++j) {
    if (right[j] > 0) heap.emplace(right[j], -static_cast<int32_t>(j));
  }
  std::vector<std::pair<int32_t, int32_t>> edges;
  std::vector<Slot> taken;
  for (int32_t u : order) {
    taken.clear();
    for (int64_t d = left[static_cast<size_t>(u)]; d > 0 && !heap.empty();
         --d) {
      Slot s = heap.top();
      heap.pop();
      edges.emplace_back(u, -s.second);
      taken.push_back(s);
    }
    // Re-insert after the whole row so one left node never takes the
    // same right node twice.
    for (Slot s : taken) {
      if (--s.first > 0) heap.push(s);
    }
  }
  return edges;
}

namespace {

constexpr uint64_t kSeed = 1;
constexpr int32_t kCommunities = 40;
constexpr int32_t kMembers = 800;
constexpr int32_t kThreads = 600;
constexpr int32_t kTags = 100;
constexpr double kGamma = -2.0;
constexpr int64_t kMaxPostsPerMember = 800;
constexpr int64_t kMaxPostsPerThread = 600;
constexpr int64_t kMinPostsPerTag = 5;
constexpr int64_t kMaxPostsPerTag = 1500;

Status AddTable(Database* db, const std::string& name,
                const std::vector<ColumnDef>& columns) {
  auto table = db->AddTable(name);
  if (!table.ok()) return table.status();
  for (const ColumnDef& c : columns) {
    auto idx = (*table)->AddColumn(c.name, c.type);
    if (!idx.ok()) return idx.status();
  }
  return (*table)->SetPrimaryKey(0);
}

// Parent id (1-based) of each of `children` rows: parent fan-outs follow
// a power-law sequence rescaled to sum to `children` (every parent keeps
// at least one child), and the rows are shuffled so hubs are not
// clustered by id.
std::vector<int64_t> StarParents(Rng& rng, int64_t parents, int64_t children,
                                 double gamma) {
  std::vector<int64_t> degrees =
      PowerlawDegrees(rng, parents, 1, children, gamma);
  int64_t sum = 0;
  for (int64_t d : degrees) sum += d;
  int64_t assigned = 0;
  for (int64_t& d : degrees) {
    d = std::max<int64_t>(1, d * children / sum);
    assigned += d;
  }
  degrees.front() += std::max<int64_t>(0, children - assigned);
  std::vector<int64_t> out;
  for (size_t p = 0; p < degrees.size(); ++p) {
    out.insert(out.end(), static_cast<size_t>(degrees[p]),
               static_cast<int64_t>(p) + 1);
  }
  rng.Shuffle(out);
  return out;
}

}  // namespace

StatusOr<Database> MakePowerlawDb() {
  using datagen::ZipfFullName;
  using datagen::ZipfPhrase;
  Rng rng(kSeed);
  Database db;
  const ColumnType kInt = ColumnType::kInt64;
  const ColumnType kText = ColumnType::kText;
  for (Status st : {
           AddTable(&db, "Community", {{"CommunityId", kInt},
                                       {"CommunityName", kText},
                                       {"Theme", kText}}),
           AddTable(&db, "Member", {{"MemberId", kInt},
                                    {"MemberName", kText},
                                    {"Location", kText},
                                    {"CommunityId", kInt}}),
           AddTable(&db, "Thread", {{"ThreadId", kInt},
                                    {"Title", kText},
                                    {"Topic", kText},
                                    {"CommunityId", kInt}}),
           AddTable(&db, "Post", {{"PostId", kInt},
                                  {"Body", kText},
                                  {"MemberId", kInt},
                                  {"ThreadId", kInt}}),
           AddTable(&db, "Tag", {{"TagId", kInt}, {"TagName", kText}}),
           AddTable(&db, "PostTag", {{"PostTagId", kInt},
                                     {"Note", kText},
                                     {"PostId", kInt},
                                     {"TagId", kInt}}),
       }) {
    if (!st.ok()) return st;
  }

  const ZipfSampler company(datagen::CompanyWords().size(), 0.8);
  const ZipfSampler product(datagen::ProductWords().size(), 0.9);
  const ZipfSampler support(datagen::SupportWords().size(), 0.9);
  const ZipfSampler first(datagen::FirstNames().size(), 0.9);
  const ZipfSampler last(datagen::LastNames().size(), 0.9);
  const ZipfSampler city(datagen::Cities().size(), 0.8);
  const ZipfSampler color(datagen::Colors().size(), 0.7);

  auto append = [&](const char* table, std::vector<Value> row) {
    return db.FindTable(table)->AppendRow(row);
  };

  for (int32_t i = 1; i <= kCommunities; ++i) {
    Status st = append("Community",
                       {Value::Int(i),
                        Value::Text(ZipfPhrase(rng, company,
                                               datagen::CompanyWords(), 2)),
                        Value::Text(ZipfPhrase(rng, product,
                                               datagen::ProductWords(), 1))});
    if (!st.ok()) return st;
  }
  // Members and threads hang off communities with power-law fan-out.
  const std::vector<int64_t> member_community =
      StarParents(rng, kCommunities, kMembers, kGamma);
  for (size_t i = 0; i < member_community.size(); ++i) {
    Status st = append(
        "Member",
        {Value::Int(static_cast<int64_t>(i) + 1),
         Value::Text(ZipfFullName(rng, first, last)),
         Value::Text(std::string(datagen::Cities()[city.Sample(rng)])),
         Value::Int(member_community[i])});
    if (!st.ok()) return st;
  }
  const std::vector<int64_t> thread_community =
      StarParents(rng, kCommunities, kThreads, kGamma);
  for (size_t i = 0; i < thread_community.size(); ++i) {
    Status st = append(
        "Thread",
        {Value::Int(static_cast<int64_t>(i) + 1),
         Value::Text(ZipfPhrase(rng, support, datagen::SupportWords(), 3)),
         Value::Text(ZipfPhrase(rng, product, datagen::ProductWords(), 2)),
         Value::Int(thread_community[i])});
    if (!st.ok()) return st;
  }

  // A post is an edge member -> thread: both sides power-law, realized
  // as a simple bipartite graph.
  std::vector<int64_t> member_posts =
      PowerlawDegrees(rng, static_cast<int64_t>(member_community.size()), 1,
                      kMaxPostsPerMember, kGamma);
  rng.Shuffle(member_posts);
  std::vector<int64_t> thread_posts =
      PowerlawDegrees(rng, static_cast<int64_t>(thread_community.size()), 1,
                      kMaxPostsPerThread, kGamma);
  rng.Shuffle(thread_posts);
  auto posts = HavelHakimiBipartite(member_posts, thread_posts);
  rng.Shuffle(posts);
  for (size_t i = 0; i < posts.size(); ++i) {
    Status st = append(
        "Post",
        {Value::Int(static_cast<int64_t>(i) + 1),
         Value::Text(ZipfPhrase(rng, support, datagen::SupportWords(), 4)),
         Value::Int(posts[i].first + 1), Value::Int(posts[i].second + 1)});
    if (!st.ok()) return st;
  }

  for (int32_t i = 1; i <= kTags; ++i) {
    Status st = append(
        "Tag", {Value::Int(i),
                Value::Text(std::string(datagen::Colors()[color.Sample(rng)]) +
                            " " +
                            ZipfPhrase(rng, product, datagen::ProductWords(),
                                       1))});
    if (!st.ok()) return st;
  }
  // Tags are the hubs; each post carries one to three of them.
  std::vector<int64_t> tag_posts =
      PowerlawDegrees(rng, kTags, kMinPostsPerTag, kMaxPostsPerTag, kGamma);
  std::vector<int64_t> post_slots(posts.size());
  for (int64_t& s : post_slots) s = rng.UniformRange(1, 3);
  auto post_tags = HavelHakimiBipartite(tag_posts, post_slots);
  rng.Shuffle(post_tags);
  for (size_t i = 0; i < post_tags.size(); ++i) {
    Status st = append(
        "PostTag",
        {Value::Int(static_cast<int64_t>(i) + 1),
         Value::Text(ZipfPhrase(rng, company, datagen::CompanyWords(), 1)),
         Value::Int(post_tags[i].second + 1),
         Value::Int(post_tags[i].first + 1)});
    if (!st.ok()) return st;
  }

  for (const auto& [child, column, parent] :
       std::vector<std::tuple<const char*, const char*, const char*>>{
           {"Member", "CommunityId", "Community"},
           {"Thread", "CommunityId", "Community"},
           {"Post", "MemberId", "Member"},
           {"Post", "ThreadId", "Thread"},
           {"PostTag", "PostId", "Post"},
           {"PostTag", "TagId", "Tag"}}) {
    Status st = db.AddForeignKey(child, column, parent);
    if (!st.ok()) return st;
  }
  Status st = db.Finalize();
  if (!st.ok()) return st;
  return db;
}

std::vector<Fanout> MeasureFanout(const Database& db) {
  std::vector<Fanout> out;
  for (const ForeignKeyDef& fk : db.foreign_keys()) {
    const Table& child = db.table(fk.src_table);
    const Table& parent = db.table(fk.dst_table);
    std::unordered_map<int64_t, int64_t> per_parent;
    Fanout f;
    f.label = child.name() + "." + child.column(fk.src_column).name + "->" +
              parent.name();
    for (int64_t r = 0; r < child.NumRows(); ++r) {
      if (child.IsNull(r, fk.src_column)) continue;
      ++per_parent[child.GetInt(r, fk.src_column)];
      ++f.children;
    }
    f.parents = parent.NumRows();
    std::vector<int64_t> counts;
    for (const auto& [pk, n] : per_parent) counts.push_back(n);
    std::sort(counts.begin(), counts.end(), std::greater<>());
    const size_t top = static_cast<size_t>(
        std::max<int64_t>(1, (f.parents + 99) / 100));
    int64_t held = 0;
    for (size_t i = 0; i < counts.size() && i < top; ++i) held += counts[i];
    f.max = counts.empty() ? 0 : counts.front();
    f.top1pct_share = f.children == 0 ? 0.0
                                      : static_cast<double>(held) /
                                            static_cast<double>(f.children);
    out.push_back(f);
  }
  return out;
}

}  // namespace s4::perfbench
