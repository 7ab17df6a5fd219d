#include "scene/procedural.hh"

#include <array>
#include <cmath>
#include <map>

namespace trt
{

Transform
Transform::translate(const Vec3 &d)
{
    Transform x;
    x.t = d;
    return x;
}

Transform
Transform::scale(float s)
{
    return scale(Vec3{s, s, s});
}

Transform
Transform::scale(const Vec3 &s)
{
    Transform x;
    x.m[0][0] = s.x;
    x.m[1][1] = s.y;
    x.m[2][2] = s.z;
    return x;
}

Transform
Transform::rotateY(float radians)
{
    Transform x;
    float c = std::cos(radians), s = std::sin(radians);
    x.m[0][0] = c;
    x.m[0][2] = s;
    x.m[2][0] = -s;
    x.m[2][2] = c;
    return x;
}

Transform
Transform::compose(const Transform &other) const
{
    Transform r;
    for (int i = 0; i < 3; i++) {
        for (int j = 0; j < 3; j++) {
            r.m[i][j] = 0.0f;
            for (int k = 0; k < 3; k++)
                r.m[i][j] += m[i][k] * other.m[k][j];
        }
    }
    r.t = apply(other.t);
    return r;
}

void
MeshBuilder::addTriangle(const Vec3 &a, const Vec3 &b, const Vec3 &c,
                         uint32_t mat)
{
    Triangle t;
    t.v0 = a;
    t.v1 = b;
    t.v2 = c;
    t.material = mat;
    tris_.push_back(t);
}

void
MeshBuilder::addQuad(const Vec3 &a, const Vec3 &b, const Vec3 &c,
                     const Vec3 &d, uint32_t mat)
{
    addTriangle(a, b, c, mat);
    addTriangle(a, c, d, mat);
}

void
MeshBuilder::addBox(const Vec3 &lo, const Vec3 &hi, uint32_t mat)
{
    Vec3 p000{lo.x, lo.y, lo.z}, p001{lo.x, lo.y, hi.z};
    Vec3 p010{lo.x, hi.y, lo.z}, p011{lo.x, hi.y, hi.z};
    Vec3 p100{hi.x, lo.y, lo.z}, p101{hi.x, lo.y, hi.z};
    Vec3 p110{hi.x, hi.y, lo.z}, p111{hi.x, hi.y, hi.z};

    addQuad(p000, p100, p101, p001, mat); // bottom
    addQuad(p010, p011, p111, p110, mat); // top
    addQuad(p000, p001, p011, p010, mat); // -x
    addQuad(p100, p110, p111, p101, mat); // +x
    addQuad(p000, p010, p110, p100, mat); // -z
    addQuad(p001, p101, p111, p011, mat); // +z
}

namespace
{

/** Icosahedron vertex list (unit sphere). */
void
icosahedron(std::vector<Vec3> &verts, std::vector<std::array<int, 3>> &faces)
{
    const float phi = (1.0f + std::sqrt(5.0f)) / 2.0f;
    auto add = [&](float x, float y, float z) {
        verts.push_back(normalize(Vec3{x, y, z}));
    };
    add(-1, phi, 0);
    add(1, phi, 0);
    add(-1, -phi, 0);
    add(1, -phi, 0);
    add(0, -1, phi);
    add(0, 1, phi);
    add(0, -1, -phi);
    add(0, 1, -phi);
    add(phi, 0, -1);
    add(phi, 0, 1);
    add(-phi, 0, -1);
    add(-phi, 0, 1);

    faces = {{0, 11, 5},  {0, 5, 1},   {0, 1, 7},   {0, 7, 10}, {0, 10, 11},
             {1, 5, 9},   {5, 11, 4},  {11, 10, 2}, {10, 7, 6}, {7, 1, 8},
             {3, 9, 4},   {3, 4, 2},   {3, 2, 6},   {3, 6, 8},  {3, 8, 9},
             {4, 9, 5},   {2, 4, 11},  {6, 2, 10},  {8, 6, 7},  {9, 8, 1}};
}

} // anonymous namespace

void
MeshBuilder::addSphere(const Vec3 &center, float radius, int subdivisions,
                       uint32_t mat,
                       const std::function<float(const Vec3 &)> &displace)
{
    std::vector<Vec3> verts;
    std::vector<std::array<int, 3>> faces;
    icosahedron(verts, faces);

    // Midpoint subdivision with vertex sharing so displacement produces a
    // crack-free surface.
    for (int level = 0; level < subdivisions; level++) {
        std::map<std::pair<int, int>, int> midpoint;
        auto mid = [&](int a, int b) {
            auto key = std::minmax(a, b);
            auto it = midpoint.find(key);
            if (it != midpoint.end())
                return it->second;
            Vec3 p = normalize((verts[a] + verts[b]) * 0.5f);
            verts.push_back(p);
            int idx = int(verts.size()) - 1;
            midpoint.emplace(key, idx);
            return idx;
        };
        std::vector<std::array<int, 3>> next;
        next.reserve(faces.size() * 4);
        for (const auto &f : faces) {
            int ab = mid(f[0], f[1]);
            int bc = mid(f[1], f[2]);
            int ca = mid(f[2], f[0]);
            next.push_back({f[0], ab, ca});
            next.push_back({f[1], bc, ab});
            next.push_back({f[2], ca, bc});
            next.push_back({ab, bc, ca});
        }
        faces = std::move(next);
    }

    std::vector<Vec3> world(verts.size());
    for (size_t i = 0; i < verts.size(); i++) {
        float r = radius;
        if (displace)
            r *= 1.0f + displace(verts[i]);
        world[i] = center + verts[i] * r;
    }
    for (const auto &f : faces)
        addTriangle(world[f[0]], world[f[1]], world[f[2]], mat);
}

void
MeshBuilder::addCylinder(const Vec3 &p0, const Vec3 &p1, float radius,
                         int segments, uint32_t mat)
{
    constexpr float kPi = 3.14159265358979323846f;
    Vec3 axis = normalize(p1 - p0);
    // Build a frame around the axis.
    Vec3 side = std::fabs(axis.y) < 0.99f ? Vec3{0, 1, 0} : Vec3{1, 0, 0};
    Vec3 u = normalize(cross(axis, side));
    Vec3 v = cross(axis, u);

    for (int s = 0; s < segments; s++) {
        float a0 = 2.0f * kPi * float(s) / float(segments);
        float a1 = 2.0f * kPi * float(s + 1) / float(segments);
        Vec3 r0 = u * std::cos(a0) + v * std::sin(a0);
        Vec3 r1 = u * std::cos(a1) + v * std::sin(a1);
        addQuad(p0 + r0 * radius, p0 + r1 * radius, p1 + r1 * radius,
                p1 + r0 * radius, mat);
    }
}

void
MeshBuilder::addCone(const Vec3 &base, const Vec3 &apex, float radius,
                     int segments, uint32_t mat)
{
    constexpr float kPi = 3.14159265358979323846f;
    Vec3 axis = normalize(apex - base);
    Vec3 side = std::fabs(axis.y) < 0.99f ? Vec3{0, 1, 0} : Vec3{1, 0, 0};
    Vec3 u = normalize(cross(axis, side));
    Vec3 v = cross(axis, u);

    for (int s = 0; s < segments; s++) {
        float a0 = 2.0f * kPi * float(s) / float(segments);
        float a1 = 2.0f * kPi * float(s + 1) / float(segments);
        Vec3 r0 = u * std::cos(a0) + v * std::sin(a0);
        Vec3 r1 = u * std::cos(a1) + v * std::sin(a1);
        addTriangle(base + r0 * radius, base + r1 * radius, apex, mat);
    }
}

void
MeshBuilder::addHeightfield(float x0, float z0, float x1, float z1, int nx,
                            int nz, uint32_t mat,
                            const std::function<float(float, float)> &height)
{
    auto point = [&](int i, int j) {
        float x = x0 + (x1 - x0) * float(i) / float(nx);
        float z = z0 + (z1 - z0) * float(j) / float(nz);
        return Vec3{x, height(x, z), z};
    };
    for (int i = 0; i < nx; i++) {
        for (int j = 0; j < nz; j++) {
            Vec3 p00 = point(i, j), p10 = point(i + 1, j);
            Vec3 p01 = point(i, j + 1), p11 = point(i + 1, j + 1);
            addTriangle(p00, p10, p11, mat);
            addTriangle(p00, p11, p01, mat);
        }
    }
}

void
MeshBuilder::addBlade(const Vec3 &root, float height, float width,
                      float lean_x, float lean_z, uint32_t mat)
{
    Vec3 tip = root + Vec3{lean_x, height, lean_z};
    Vec3 half{width * 0.5f, 0.0f, width * 0.1f};
    addTriangle(root - half, root + half, tip, mat);
    // Back face so the blade is visible from both sides regardless of
    // winding-sensitive shading (we shade double-sided anyway, but the
    // second triangle thickens the geometric footprint slightly).
    Vec3 mid = lerp(root, tip, 0.5f) + Vec3{0.0f, 0.0f, width * 0.05f};
    addTriangle(root + half, mid, tip, mat);
}

void
MeshBuilder::append(const MeshBuilder &other, const Transform &xf)
{
    for (const auto &t : other.tris_) {
        Triangle n;
        n.v0 = xf.apply(t.v0);
        n.v1 = xf.apply(t.v1);
        n.v2 = xf.apply(t.v2);
        n.material = t.material;
        tris_.push_back(n);
    }
}

void
MeshBuilder::append(const MeshBuilder &other)
{
    tris_.insert(tris_.end(), other.tris_.begin(), other.tris_.end());
}

float
valueNoise2(float x, float y, uint32_t seed)
{
    auto lattice = [seed](int ix, int iy) {
        uint64_t key = (uint64_t(uint32_t(ix)) << 32) ^ uint32_t(iy);
        return float(hashMix(key ^ (uint64_t(seed) << 17)) >> 8) *
               (1.0f / 16777216.0f);
    };
    int ix = int(std::floor(x)), iy = int(std::floor(y));
    float fx = x - float(ix), fy = y - float(iy);
    // Smoothstep interpolation weights.
    float wx = fx * fx * (3.0f - 2.0f * fx);
    float wy = fy * fy * (3.0f - 2.0f * fy);
    float v00 = lattice(ix, iy), v10 = lattice(ix + 1, iy);
    float v01 = lattice(ix, iy + 1), v11 = lattice(ix + 1, iy + 1);
    float a = v00 + (v10 - v00) * wx;
    float b = v01 + (v11 - v01) * wx;
    return a + (b - a) * wy;
}

float
fbm2(float x, float y, int octaves, uint32_t seed)
{
    float amp = 0.5f, sum = 0.0f, norm = 0.0f;
    for (int o = 0; o < octaves; o++) {
        sum += amp * valueNoise2(x, y, seed + uint32_t(o) * 7919u);
        norm += amp;
        amp *= 0.5f;
        x *= 2.0f;
        y *= 2.0f;
    }
    return norm > 0.0f ? sum / norm : 0.0f;
}

} // namespace trt
