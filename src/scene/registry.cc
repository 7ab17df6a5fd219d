#include "scene/registry.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "geom/onb.hh"
#include "scene/procedural.hh"

namespace trt
{

namespace
{

constexpr float kPi = 3.14159265358979323846f;

/**
 * Place the camera on a ring around the scene bounds looking at the
 * center, the way LumiBench frames its scenes.
 */
void
autoCamera(Scene &scene, float azimuth_deg, float elevation_deg,
           float distance_factor, float fov_deg = 50.0f)
{
    Aabb b = scene.bounds();
    Vec3 center = b.center();
    float radius = length(b.extent()) * 0.5f;
    float az = azimuth_deg * kPi / 180.0f;
    float el = elevation_deg * kPi / 180.0f;
    Vec3 offset{std::cos(el) * std::sin(az), std::sin(el),
                std::cos(el) * std::cos(az)};
    Vec3 pos = center + offset * (radius * distance_factor);
    scene.camera = Camera(pos, center, {0, 1, 0}, fov_deg);
}

/** Subdivision level n such that 20 * 4^n is closest to @p budget. */
int
sphereSubdivForBudget(uint32_t budget)
{
    int n = 0;
    while (n < 8 && 20u * (1u << (2 * (n + 1))) <= budget)
        n++;
    return n;
}

/** Grid resolution r such that 2 * r * r is about @p budget. */
int
gridResForBudget(uint32_t budget)
{
    int r = int(std::sqrt(std::max(2.0, double(budget) / 2.0)));
    return std::max(1, r);
}

/** An emissive ceiling/sky panel sized to the scene, added last. */
void
addLightPanel(Scene &scene, MeshBuilder &mb, const Vec3 &emission)
{
    uint32_t mat = uint32_t(scene.materials.size());
    scene.materials.push_back(Material::emissive(emission));
    Aabb b;
    for (const auto &t : mb.triangles())
        b.grow(t.bounds());
    Vec3 c = b.center();
    Vec3 e = b.extent();
    float y = b.hi.y + e.y * 0.35f;
    float hx = e.x * 0.25f, hz = e.z * 0.25f;
    mb.addQuad({c.x - hx, y, c.z - hz}, {c.x + hx, y, c.z - hz},
               {c.x + hx, y, c.z + hz}, {c.x - hx, y, c.z + hz}, mat);
}

/** A simple conifer used by CHSNT / FRST / PARK. */
MeshBuilder
makeTree(Pcg32 &rng, uint32_t leaf_budget, uint32_t trunk_mat,
         uint32_t leaf_mat)
{
    MeshBuilder t;
    float h = rng.nextRange(3.0f, 5.0f);
    t.addCylinder({0, 0, 0}, {0, h * 0.45f, 0}, 0.15f * h / 4.0f, 8,
                  trunk_mat);
    // Either a layered conifer or a blade-leaf canopy depending on the
    // leaf budget, so small trees stay cheap.
    int layers = 3;
    uint32_t cone_tris = uint32_t(layers) * 10u;
    if (leaf_budget > cone_tris * 4) {
        uint32_t blades = (leaf_budget - cone_tris) / 2;
        for (uint32_t i = 0; i < blades; i++) {
            float ang = rng.nextRange(0.0f, 2.0f * kPi);
            float rad = rng.nextRange(0.0f, h * 0.35f);
            float y = rng.nextRange(h * 0.35f, h);
            Vec3 root{std::cos(ang) * rad, y, std::sin(ang) * rad};
            t.addBlade(root, rng.nextRange(0.1f, 0.3f),
                       rng.nextRange(0.05f, 0.12f),
                       rng.nextRange(-0.15f, 0.15f),
                       rng.nextRange(-0.15f, 0.15f), leaf_mat);
        }
    }
    for (int l = 0; l < layers; l++) {
        float base = h * (0.3f + 0.2f * float(l));
        float rad = h * 0.35f * (1.0f - 0.25f * float(l));
        t.addCone({0, base, 0}, {0, base + h * 0.3f, 0}, rad, 10, leaf_mat);
    }
    return t;
}

// ---------------------------------------------------------------------
// Scene generators. Each consumes a triangle budget and returns a Scene.
// ---------------------------------------------------------------------

Scene
makeBunny(uint32_t budget)
{
    Scene s;
    s.name = "BUNNY";
    s.materials = {Material::lambert({0.75f, 0.71f, 0.68f}),   // body
                   Material::lambert({0.45f, 0.55f, 0.35f}),   // ground
                   Material::glossy({0.7f, 0.7f, 0.75f}, 0.2f)};

    MeshBuilder mb;
    Pcg32 rng(101);
    uint32_t body_budget = budget * 6 / 10;
    int sub = sphereSubdivForBudget(body_budget);
    auto lump = [](const Vec3 &p) {
        // Ears/haunches-ish lumpy displacement.
        return 0.25f * fbm2(p.x * 2.0f + 3.0f, p.y * 2.0f + p.z, 4, 7u) +
               0.35f * std::fmax(0.0f, p.y) * valueNoise2(p.x * 3, p.z * 3,
                                                          11u);
    };
    mb.addSphere({0, 1.2f, 0}, 1.0f, sub, 0, lump);
    mb.addSphere({1.6f, 0.5f, 0.8f}, 0.45f, std::max(1, sub - 2), 2);

    uint32_t used = uint32_t(mb.triangleCount());
    int res = gridResForBudget(budget > used ? budget - used : 2);
    mb.addHeightfield(-6, -6, 6, 6, res, res, 1, [](float x, float z) {
        return 0.12f * fbm2(x * 0.5f, z * 0.5f, 3, 23u);
    });

    addLightPanel(s, mb, {14, 13, 12});
    s.triangles = std::move(mb.triangles());
    autoCamera(s, 35, 22, 1.5f);
    return s;
}

Scene
makeSponza(uint32_t budget)
{
    Scene s;
    s.name = "SPNZA";
    s.materials = {Material::lambert({0.73f, 0.65f, 0.55f}),  // stone
                   Material::lambert({0.60f, 0.25f, 0.20f}),  // drapes
                   Material::lambert({0.55f, 0.50f, 0.45f}),  // floor
                   Material::lambert({0.35f, 0.30f, 0.28f})}; // trim

    MeshBuilder mb;
    // Atrium: two colonnade rows along x, open courtyard between.
    const float L = 20.0f, W = 10.0f, H = 8.0f;
    for (int row = 0; row < 2; row++) {
        float z = row == 0 ? -W * 0.5f : W * 0.5f;
        for (int i = 0; i < 9; i++) {
            float x = -L * 0.5f + 2.2f + float(i) * 2.0f;
            mb.addCylinder({x, 0, z}, {x, H * 0.55f, z}, 0.35f, 12, 0);
            mb.addBox({x - 0.5f, H * 0.55f, z - 0.5f},
                      {x + 0.5f, H * 0.62f, z + 0.5f}, 3);
            mb.addBox({x - 0.45f, -0.05f, z - 0.45f},
                      {x + 0.45f, 0.12f, z + 0.45f}, 3);
        }
        // Upper gallery ledge.
        mb.addBox({-L * 0.5f, H * 0.62f, z - 0.6f},
                  {L * 0.5f, H * 0.7f, z + 0.6f}, 0);
        // Hanging drapes.
        for (int i = 0; i < 5; i++) {
            float x = -L * 0.5f + 3.5f + float(i) * 3.4f;
            mb.addQuad({x, H * 0.6f, z - 0.02f}, {x + 1.6f, H * 0.6f,
                        z - 0.02f}, {x + 1.6f, H * 0.25f, z + 0.25f},
                       {x, H * 0.25f, z + 0.25f}, 1);
        }
    }
    // End walls.
    mb.addBox({-L * 0.5f - 0.4f, 0, -W * 0.5f - 1.5f},
              {-L * 0.5f, H, W * 0.5f + 1.5f}, 0);
    mb.addBox({L * 0.5f, 0, -W * 0.5f - 1.5f},
              {L * 0.5f + 0.4f, H, W * 0.5f + 1.5f}, 0);
    // Outer side walls behind the colonnades.
    mb.addBox({-L * 0.5f, 0, -W * 0.5f - 1.5f},
              {L * 0.5f, H, -W * 0.5f - 1.2f}, 0);
    mb.addBox({-L * 0.5f, 0, W * 0.5f + 1.2f},
              {L * 0.5f, H, W * 0.5f + 1.5f}, 0);

    // Tessellated floor consumes the remaining budget (worn stone).
    uint32_t used = uint32_t(mb.triangleCount());
    int res = gridResForBudget(budget > used ? budget - used : 2);
    mb.addHeightfield(-L * 0.5f, -W * 0.5f - 1.5f, L * 0.5f, W * 0.5f + 1.5f,
                      res, res, 2, [](float x, float z) {
                          return 0.02f * fbm2(x * 2.0f, z * 2.0f, 3, 31u);
                      });

    addLightPanel(s, mb, {16, 15, 13});
    s.triangles = std::move(mb.triangles());
    autoCamera(s, 78, 12, 1.15f, 60.0f);
    return s;
}

Scene
makeChestnut(uint32_t budget)
{
    Scene s;
    s.name = "CHSNT";
    s.materials = {Material::lambert({0.42f, 0.30f, 0.20f}),  // bark
                   Material::lambert({0.25f, 0.50f, 0.18f}),  // leaves
                   Material::lambert({0.40f, 0.48f, 0.30f})}; // ground

    MeshBuilder mb;
    Pcg32 rng(303);
    // Trunk and main branches.
    mb.addCylinder({0, 0, 0}, {0, 4.0f, 0}, 0.5f, 16, 0);
    for (int i = 0; i < 7; i++) {
        float ang = 2.0f * kPi * float(i) / 7.0f + rng.nextFloat();
        Vec3 dir{std::cos(ang), 1.1f, std::sin(ang)};
        Vec3 base{0, 3.2f + 0.3f * float(i % 3), 0};
        mb.addCylinder(base, base + normalize(dir) * 2.8f, 0.18f, 8, 0);
    }
    // Leaf canopy: blades scattered in a sphere shell.
    uint32_t used = uint32_t(mb.triangleCount());
    uint32_t ground_budget = budget / 8;
    uint32_t leaves = budget > used + ground_budget
                          ? (budget - used - ground_budget) / 2
                          : 100;
    for (uint32_t i = 0; i < leaves; i++) {
        Vec3 d = sampleUniformSphere(rng.nextFloat(), rng.nextFloat());
        float r = 2.2f + 1.5f * std::cbrt(rng.nextFloat());
        Vec3 root = Vec3{0, 5.2f, 0} + d * r;
        if (root.y < 2.0f)
            root.y = 2.0f + rng.nextFloat();
        mb.addBlade(root, rng.nextRange(0.12f, 0.3f),
                    rng.nextRange(0.08f, 0.18f), rng.nextRange(-0.2f, 0.2f),
                    rng.nextRange(-0.2f, 0.2f), 1);
    }
    int res = gridResForBudget(ground_budget);
    mb.addHeightfield(-9, -9, 9, 9, res, res, 2, [](float x, float z) {
        return 0.10f * fbm2(x * 0.7f, z * 0.7f, 3, 41u);
    });

    addLightPanel(s, mb, {15, 14, 12});
    s.triangles = std::move(mb.triangles());
    autoCamera(s, 120, 10, 1.35f);
    return s;
}

Scene
makeRef(uint32_t budget)
{
    Scene s;
    s.name = "REF";
    s.materials = {Material::lambert({0.7f, 0.7f, 0.7f}),    // walls
                   Material::mirror(),                        // spheres
                   Material::glossy({0.8f, 0.6f, 0.3f}, 0.1f),
                   Material::lambert({0.2f, 0.3f, 0.6f}),
                   Material::mirror({0.9f, 0.95f, 0.9f})};

    MeshBuilder mb;
    // Mirror/glossy spheres on a tessellated studio floor; the classic
    // reflection test arrangement.
    uint32_t sphere_budget = budget / 2;
    int sub = sphereSubdivForBudget(sphere_budget / 3);
    mb.addSphere({-2.4f, 1.0f, 0.0f}, 1.0f, sub, 1);
    mb.addSphere({0.0f, 1.0f, -0.8f}, 1.0f, sub, 4);
    mb.addSphere({2.4f, 1.0f, 0.0f}, 1.0f, sub, 2);
    // Backdrop panels.
    mb.addQuad({-6, 0, -4}, {6, 0, -4}, {6, 6, -4}, {-6, 6, -4}, 3);
    mb.addBox({-6.2f, 0, -4.2f}, {-6.0f, 6, 4}, 0);
    mb.addBox({6.0f, 0, -4.2f}, {6.2f, 6, 4}, 0);

    uint32_t used = uint32_t(mb.triangleCount());
    int res = gridResForBudget(budget > used ? budget - used : 2);
    mb.addHeightfield(-6, -4, 6, 4, res, res, 0, [](float x, float z) {
        return 0.01f * valueNoise2(x * 4, z * 4, 55u);
    });

    addLightPanel(s, mb, {18, 17, 16});
    s.triangles = std::move(mb.triangles());
    autoCamera(s, 0, 14, 1.45f);
    return s;
}

Scene
makeCarnival(uint32_t budget)
{
    Scene s;
    s.name = "CRNVL";
    s.materials = {Material::lambert({0.8f, 0.2f, 0.2f}),   // red
                   Material::lambert({0.9f, 0.8f, 0.2f}),   // yellow
                   Material::lambert({0.2f, 0.4f, 0.8f}),   // blue
                   Material::lambert({0.45f, 0.42f, 0.38f}),// ground
                   Material::emissive({6, 5, 3}),           // bulbs
                   Material::glossy({0.7f, 0.7f, 0.8f}, 0.15f)};

    MeshBuilder mb;
    Pcg32 rng(505);
    // Ferris wheel: hub, spokes, cabins.
    Vec3 hub{0, 6.5f, 0};
    mb.addCylinder(hub - Vec3{0, 0, 0.6f}, hub + Vec3{0, 0, 0.6f}, 0.5f, 12,
                   5);
    for (int i = 0; i < 12; i++) {
        float ang = 2.0f * kPi * float(i) / 12.0f;
        Vec3 rim = hub + Vec3{std::cos(ang) * 5.0f, std::sin(ang) * 5.0f, 0};
        mb.addCylinder(hub, rim, 0.08f, 6, 5);
        mb.addBox(rim - Vec3{0.5f, 0.8f, 0.4f}, rim + Vec3{0.5f, 0.2f, 0.4f},
                  uint32_t(i % 3));
        mb.addSphere(rim + Vec3{0, 0.35f, 0}, 0.18f, 1, 4);
    }
    // Support legs.
    mb.addCylinder({-2.5f, 0, 1.0f}, hub, 0.25f, 8, 5);
    mb.addCylinder({2.5f, 0, 1.0f}, hub, 0.25f, 8, 5);
    // Tents.
    for (int i = 0; i < 6; i++) {
        float x = -12.0f + 4.5f * float(i);
        float z = 7.0f + rng.nextRange(-1.0f, 1.0f);
        mb.addCylinder({x, 0, z}, {x, 2.2f, z}, 1.6f, 12, uint32_t(i % 3));
        mb.addCone({x, 2.2f, z}, {x, 4.2f, z}, 2.0f, 12, uint32_t((i+1)%3));
    }
    // Stalls.
    for (int i = 0; i < 8; i++) {
        float x = rng.nextRange(-12.0f, 12.0f);
        float z = rng.nextRange(-9.0f, -4.0f);
        mb.addBox({x, 0, z}, {x + 2.0f, 2.4f, z + 1.4f}, uint32_t(i % 3));
    }

    uint32_t used = uint32_t(mb.triangleCount());
    int res = gridResForBudget(budget > used ? budget - used : 2);
    mb.addHeightfield(-15, -11, 15, 11, res, res, 3, [](float x, float z) {
        return 0.05f * fbm2(x * 0.4f, z * 0.4f, 3, 67u);
    });

    addLightPanel(s, mb, {13, 12, 11});
    s.triangles = std::move(mb.triangles());
    autoCamera(s, 28, 13, 1.25f, 55.0f);
    return s;
}

Scene
makeBathroom(uint32_t budget)
{
    Scene s;
    s.name = "BATH";
    s.materials = {Material::lambert({0.85f, 0.85f, 0.88f}),   // tiles
                   Material::glossy({0.9f, 0.9f, 0.92f}, 0.05f),// ceramic
                   Material::mirror(),                          // mirror
                   Material::lambert({0.5f, 0.45f, 0.4f}),      // wood
                   Material::lambert({0.3f, 0.5f, 0.6f})};      // towel

    MeshBuilder mb;
    const float L = 6.0f, W = 4.5f, H = 3.0f;
    // Room shell: tiled walls built as many small offset quads so the
    // geometry (not a texture) carries the tile detail.
    uint32_t tile_budget = budget / 2;
    int tiles_per_wall = std::max(2, int(std::sqrt(tile_budget / 8.0)));
    auto tile_wall = [&](Vec3 origin, Vec3 du, Vec3 dv, Vec3 jitter_n) {
        Pcg32 trng(hashMix(uint64_t(origin.x * 13 + origin.z * 7)));
        for (int i = 0; i < tiles_per_wall; i++) {
            for (int j = 0; j < tiles_per_wall; j++) {
                float u0 = float(i) / tiles_per_wall;
                float u1 = float(i + 1) / tiles_per_wall - 0.008f;
                float v0 = float(j) / tiles_per_wall;
                float v1 = float(j + 1) / tiles_per_wall - 0.008f;
                Vec3 n = jitter_n * (0.004f * trng.nextFloat());
                mb.addQuad(origin + du * u0 + dv * v0 + n,
                           origin + du * u1 + dv * v0 + n,
                           origin + du * u1 + dv * v1 + n,
                           origin + du * u0 + dv * v1 + n, 0);
            }
        }
    };
    tile_wall({0, 0, 0}, {L, 0, 0}, {0, H, 0}, {0, 0, 1});       // back
    tile_wall({0, 0, W}, {0, 0, -W}, {0, H, 0}, {1, 0, 0});      // left
    tile_wall({L, 0, 0}, {0, 0, W}, {0, H, 0}, {-1, 0, 0});      // right
    tile_wall({0, 0, W}, {L, 0, 0}, {0, 0, -W}, {0, 1, 0});      // floor

    // Tub: half-ellipsoid shell.
    uint32_t used = uint32_t(mb.triangleCount());
    int sub = sphereSubdivForBudget((budget - std::min(budget, used)) / 2);
    MeshBuilder tub;
    tub.addSphere({0, 0, 0}, 1.0f, std::max(2, sub), 1);
    Transform tubxf = Transform::translate({L * 0.3f, 0.55f, W * 0.35f})
                          .compose(Transform::scale({1.6f, 0.55f, 0.9f}));
    mb.append(tub, tubxf);
    // Mirror above a wooden vanity.
    mb.addQuad({L * 0.55f, 1.2f, 0.02f}, {L * 0.9f, 1.2f, 0.02f},
               {L * 0.9f, 2.4f, 0.02f}, {L * 0.55f, 2.4f, 0.02f}, 2);
    mb.addBox({L * 0.52f, 0, 0.0f}, {L * 0.93f, 0.9f, 0.6f}, 3);
    mb.addSphere({L * 0.72f, 1.0f, 0.3f}, 0.18f, 2, 1);
    // Towel rack.
    mb.addCylinder({0.1f, 1.6f, W * 0.7f}, {0.1f, 1.6f, W * 0.9f}, 0.03f, 6,
                   3);
    mb.addQuad({0.12f, 1.6f, W * 0.72f}, {0.12f, 1.6f, W * 0.88f},
               {0.12f, 0.9f, W * 0.88f}, {0.12f, 0.9f, W * 0.72f}, 4);

    addLightPanel(s, mb, {12, 12, 11});
    s.triangles = std::move(mb.triangles());
    autoCamera(s, 215, 12, 1.05f, 60.0f);
    return s;
}

Scene
makeParty(uint32_t budget)
{
    Scene s;
    s.name = "PARTY";
    s.materials = {Material::lambert({0.75f, 0.72f, 0.70f}),  // room
                   Material::lambert({0.85f, 0.2f, 0.25f}),
                   Material::lambert({0.2f, 0.7f, 0.3f}),
                   Material::lambert({0.95f, 0.8f, 0.2f}),
                   Material::lambert({0.3f, 0.35f, 0.85f}),
                   Material::glossy({0.8f, 0.8f, 0.85f}, 0.1f),
                   Material::emissive({8, 7, 5})};

    MeshBuilder mb;
    Pcg32 rng(707);
    const float L = 14.0f, W = 10.0f, H = 5.0f;
    mb.addQuad({0, 0, 0}, {L, 0, 0}, {L, 0, W}, {0, 0, W}, 0);
    mb.addQuad({0, 0, 0}, {0, H, 0}, {L, H, 0}, {L, 0, 0}, 0);
    mb.addQuad({0, 0, 0}, {0, 0, W}, {0, H, W}, {0, H, 0}, 0);
    mb.addQuad({L, 0, 0}, {L, H, 0}, {L, H, W}, {L, 0, W}, 0);

    // Tables with glossy tops.
    for (int i = 0; i < 6; i++) {
        float x = rng.nextRange(1.5f, L - 1.5f);
        float z = rng.nextRange(1.5f, W - 1.5f);
        mb.addCylinder({x, 0, z}, {x, 0.9f, z}, 0.08f, 8, 0);
        mb.addCylinder({x, 0.9f, z}, {x, 1.0f, z}, 0.7f, 16, 5);
    }
    // Balloons: floating spheres.
    uint32_t used = uint32_t(mb.triangleCount());
    uint32_t balloon_budget = (budget - std::min(budget, used)) / 4;
    uint32_t n_balloons = std::max(8u, balloon_budget / 320u);
    for (uint32_t i = 0; i < n_balloons; i++) {
        Vec3 c{rng.nextRange(0.8f, L - 0.8f), rng.nextRange(2.2f, H - 0.4f),
               rng.nextRange(0.8f, W - 0.8f)};
        mb.addSphere(c, rng.nextRange(0.18f, 0.32f), 2,
                     1 + rng.nextBounded(4));
    }
    // Confetti: the bulk of the triangle budget; tiny random quads that
    // spread geometry through the whole room volume (BVH stress).
    used = uint32_t(mb.triangleCount());
    uint32_t confetti = budget > used ? (budget - used) / 2 : 100;
    for (uint32_t i = 0; i < confetti; i++) {
        Vec3 c{rng.nextRange(0.1f, L - 0.1f), rng.nextRange(0.02f, H - 0.2f),
               rng.nextRange(0.1f, W - 0.1f)};
        Vec3 d = sampleUniformSphere(rng.nextFloat(), rng.nextFloat());
        Vec3 e = normalize(cross(d, Vec3{0.3f, 0.8f, 0.5f})) * 0.03f;
        mb.addTriangle(c, c + d * 0.05f, c + e, 1 + rng.nextBounded(4));
        i++;
        if (i < confetti) {
            mb.addTriangle(c + e, c + d * 0.05f, c + d * 0.05f + e,
                           1 + rng.nextBounded(4));
        }
    }

    addLightPanel(s, mb, {10, 9, 8});
    s.triangles = std::move(mb.triangles());
    autoCamera(s, 40, 16, 0.95f, 62.0f);
    return s;
}

Scene
makeSpring(uint32_t budget)
{
    Scene s;
    s.name = "SPRNG";
    s.materials = {Material::lambert({0.35f, 0.55f, 0.25f}),  // grass
                   Material::lambert({0.45f, 0.50f, 0.30f}),  // soil
                   Material::lambert({0.9f, 0.6f, 0.7f}),     // blossom
                   Material::lambert({0.42f, 0.30f, 0.20f}),  // bark
                   Material::lambert({0.95f, 0.9f, 0.4f})};   // flowers

    MeshBuilder mb;
    Pcg32 rng(909);
    const float R = 16.0f;
    auto ground = [](float x, float z) {
        return 0.8f * fbm2(x * 0.15f, z * 0.15f, 4, 77u);
    };
    uint32_t terrain_budget = budget / 6;
    int res = gridResForBudget(terrain_budget);
    mb.addHeightfield(-R, -R, R, R, res, res, 1, ground);

    // A few blossoming trees.
    for (int i = 0; i < 4; i++) {
        float x = rng.nextRange(-R * 0.6f, R * 0.6f);
        float z = rng.nextRange(-R * 0.6f, R * 0.6f);
        MeshBuilder tree = makeTree(rng, 400, 3, 2);
        mb.append(tree, Transform::translate({x, ground(x, z), z}));
    }
    // Flowers.
    for (int i = 0; i < 220; i++) {
        float x = rng.nextRange(-R, R), z = rng.nextRange(-R, R);
        Vec3 c{x, ground(x, z) + 0.25f, z};
        mb.addSphere(c, 0.06f, 1, 4);
    }
    // Grass blades consume the remaining budget.
    uint32_t used = uint32_t(mb.triangleCount());
    uint32_t blades = budget > used ? (budget - used) / 2 : 100;
    for (uint32_t i = 0; i < blades; i++) {
        float x = rng.nextRange(-R, R), z = rng.nextRange(-R, R);
        mb.addBlade({x, ground(x, z), z}, rng.nextRange(0.15f, 0.45f),
                    rng.nextRange(0.02f, 0.05f), rng.nextRange(-0.2f, 0.2f),
                    rng.nextRange(-0.2f, 0.2f), 0);
    }

    addLightPanel(s, mb, {15, 14, 12});
    s.triangles = std::move(mb.triangles());
    autoCamera(s, 65, 14, 1.1f, 55.0f);
    return s;
}

Scene
makeLandscape(uint32_t budget)
{
    Scene s;
    s.name = "LANDS";
    s.materials = {Material::lambert({0.40f, 0.45f, 0.28f}),  // terrain
                   Material::lambert({0.5f, 0.48f, 0.46f}),   // rock
                   Material::lambert({0.85f, 0.87f, 0.9f}),   // snow
                   Material::lambert({0.25f, 0.45f, 0.2f})};  // shrub

    MeshBuilder mb;
    Pcg32 rng(1111);
    const float R = 40.0f;
    auto terrain = [](float x, float z) {
        float base = 6.0f * fbm2(x * 0.05f, z * 0.05f, 5, 99u);
        float ridge = 3.0f *
            std::fabs(fbm2(x * 0.08f + 10.0f, z * 0.08f, 4, 131u) - 0.5f);
        return base + ridge;
    };
    // Terrain is the bulk of the scene.
    uint32_t rock_budget = budget / 10;
    int res = gridResForBudget(budget - rock_budget);
    mb.addHeightfield(-R, -R, R, R, res, res, 0, terrain);

    // Boulders and shrubs scattered on the slopes.
    uint32_t n_rocks = std::max(10u, rock_budget / 700u);
    for (uint32_t i = 0; i < n_rocks; i++) {
        float x = rng.nextRange(-R * 0.9f, R * 0.9f);
        float z = rng.nextRange(-R * 0.9f, R * 0.9f);
        float r = rng.nextRange(0.4f, 1.6f);
        uint32_t mat = rng.nextFloat() < 0.6f ? 1u : 3u;
        uint32_t seed = rng.nextU32();
        mb.addSphere({x, terrain(x, z) + r * 0.4f, z}, r, 2, mat,
                     [seed](const Vec3 &p) {
                         return 0.35f * (valueNoise2(p.x * 2 + float(seed %
                             97), p.y * 2 + p.z, seed) - 0.5f);
                     });
    }

    addLightPanel(s, mb, {16, 15, 13});
    s.triangles = std::move(mb.triangles());
    autoCamera(s, 150, 18, 0.9f, 58.0f);
    return s;
}

Scene
makeForest(uint32_t budget)
{
    Scene s;
    s.name = "FRST";
    s.materials = {Material::lambert({0.30f, 0.26f, 0.20f}),  // floor
                   Material::lambert({0.42f, 0.30f, 0.20f}),  // bark
                   Material::lambert({0.15f, 0.40f, 0.15f}),  // needles
                   Material::lambert({0.3f, 0.45f, 0.2f})};   // moss

    MeshBuilder mb;
    Pcg32 rng(1313);
    const float R = 30.0f;
    auto ground = [](float x, float z) {
        return 1.2f * fbm2(x * 0.1f, z * 0.1f, 4, 151u);
    };
    uint32_t terrain_budget = budget / 8;
    int res = gridResForBudget(terrain_budget);
    mb.addHeightfield(-R, -R, R, R, res, res, 0, ground);

    // Instanced trees: most of the budget. Each tree carries a blade
    // canopy so secondary rays inside the forest are highly incoherent.
    uint32_t used = uint32_t(mb.triangleCount());
    uint32_t tree_budget = budget > used ? budget - used : 1000;
    uint32_t per_tree = 900;
    uint32_t n_trees = std::max(8u, tree_budget / per_tree);
    for (uint32_t i = 0; i < n_trees; i++) {
        float x = rng.nextRange(-R * 0.95f, R * 0.95f);
        float z = rng.nextRange(-R * 0.95f, R * 0.95f);
        MeshBuilder tree = makeTree(rng, per_tree - 100, 1, 2);
        Transform xf = Transform::translate({x, ground(x, z) - 0.1f, z})
                           .compose(Transform::rotateY(rng.nextRange(
                               0.0f, 2.0f * kPi)))
                           .compose(Transform::scale(rng.nextRange(0.7f,
                                                                   1.4f)));
        mb.append(tree, xf);
    }

    addLightPanel(s, mb, {14, 14, 12});
    s.triangles = std::move(mb.triangles());
    autoCamera(s, 100, 8, 0.8f, 60.0f);
    return s;
}

Scene
makePark(uint32_t budget)
{
    Scene s;
    s.name = "PARK";
    s.materials = {Material::lambert({0.35f, 0.5f, 0.25f}),   // lawn
                   Material::lambert({0.42f, 0.30f, 0.20f}),  // bark
                   Material::lambert({0.2f, 0.45f, 0.18f}),   // leaves
                   Material::lambert({0.55f, 0.5f, 0.45f}),   // path
                   Material::lambert({0.35f, 0.25f, 0.18f}),  // bench
                   Material::emissive({7, 6, 4}),             // lamp
                   Material::glossy({0.45f, 0.45f, 0.5f}, 0.2f)};

    MeshBuilder mb;
    Pcg32 rng(1515);
    const float R = 34.0f;
    auto ground = [](float x, float z) {
        return 0.6f * fbm2(x * 0.08f, z * 0.08f, 4, 171u);
    };
    uint32_t terrain_budget = budget / 6;
    int res = gridResForBudget(terrain_budget);
    mb.addHeightfield(-R, -R, R, R, res, res, 0, ground);

    // Winding path of flat quads.
    for (int i = -30; i < 30; i++) {
        float t0 = float(i) * 1.1f, t1 = t0 + 1.1f;
        auto px = [](float t) { return t; };
        auto pz = [](float t) { return 6.0f * std::sin(t * 0.12f); };
        Vec3 a{px(t0), 0, pz(t0) - 1.2f}, b{px(t0), 0, pz(t0) + 1.2f};
        Vec3 c{px(t1), 0, pz(t1) + 1.2f}, d{px(t1), 0, pz(t1) - 1.2f};
        a.y = ground(a.x, a.z) + 0.03f;
        b.y = ground(b.x, b.z) + 0.03f;
        c.y = ground(c.x, c.z) + 0.03f;
        d.y = ground(d.x, d.z) + 0.03f;
        mb.addQuad(a, b, c, d, 3);
    }
    // Benches and lamp posts along the path.
    for (int i = 0; i < 10; i++) {
        float t = -28.0f + 6.0f * float(i);
        float x = t, z = 6.0f * std::sin(t * 0.12f) + 2.0f;
        float y = ground(x, z);
        mb.addBox({x - 0.8f, y + 0.35f, z - 0.25f},
                  {x + 0.8f, y + 0.45f, z + 0.25f}, 4);
        mb.addBox({x - 0.8f, y, z - 0.22f}, {x - 0.7f, y + 0.35f, z + 0.22f},
                  4);
        mb.addBox({x + 0.7f, y, z - 0.22f}, {x + 0.8f, y + 0.35f, z + 0.22f},
                  4);
        if (i % 2 == 0) {
            mb.addCylinder({x, y, z - 1.5f}, {x, y + 3.2f, z - 1.5f}, 0.07f,
                           8, 6);
            mb.addSphere({x, y + 3.4f, z - 1.5f}, 0.25f, 2, 5);
        }
    }
    // Trees fill the remaining budget.
    uint32_t used = uint32_t(mb.triangleCount());
    uint32_t tree_budget = budget > used ? budget - used : 1000;
    uint32_t per_tree = 1100;
    uint32_t n_trees = std::max(6u, tree_budget / per_tree);
    for (uint32_t i = 0; i < n_trees; i++) {
        float x = rng.nextRange(-R * 0.95f, R * 0.95f);
        float z = rng.nextRange(-R * 0.95f, R * 0.95f);
        MeshBuilder tree = makeTree(rng, per_tree - 120, 1, 2);
        Transform xf = Transform::translate({x, ground(x, z) - 0.1f, z})
                           .compose(Transform::scale(rng.nextRange(0.8f,
                                                                   1.5f)));
        mb.append(tree, xf);
    }

    addLightPanel(s, mb, {14, 13, 12});
    s.triangles = std::move(mb.triangles());
    autoCamera(s, 55, 11, 0.85f, 58.0f);
    return s;
}

Scene
makeFox(uint32_t budget)
{
    Scene s;
    s.name = "FOX";
    s.materials = {Material::lambert({0.85f, 0.45f, 0.2f}),   // fur
                   Material::lambert({0.95f, 0.93f, 0.9f}),   // chest fur
                   Material::lambert({0.45f, 0.48f, 0.35f}),  // ground
                   Material::lambert({0.2f, 0.15f, 0.12f})};  // paws/nose

    MeshBuilder mb;
    Pcg32 rng(1717);
    // Body: displaced ellipsoid torso + head + tail cones.
    MeshBuilder body;
    body.addSphere({0, 0, 0}, 1.0f, 4, 0, [](const Vec3 &p) {
        return 0.08f * fbm2(p.x * 4, p.y * 4 + p.z, 3, 191u);
    });
    mb.append(body, Transform::translate({0, 1.0f, 0})
                        .compose(Transform::scale({1.5f, 0.85f, 0.8f})));
    mb.addSphere({1.7f, 1.6f, 0}, 0.5f, 3, 0);
    mb.addCone({1.95f, 1.55f, 0}, {2.45f, 1.45f, 0}, 0.22f, 10, 3); // snout
    mb.addCone({1.6f, 1.95f, 0.25f}, {1.75f, 2.4f, 0.32f}, 0.16f, 8, 0);
    mb.addCone({1.6f, 1.95f, -0.25f}, {1.75f, 2.4f, -0.32f}, 0.16f, 8, 0);
    mb.addCone({-1.3f, 1.0f, 0}, {-2.8f, 1.4f, 0}, 0.35f, 12, 0);  // tail
    for (int leg = 0; leg < 4; leg++) {
        float x = leg < 2 ? 0.9f : -0.8f;
        float z = (leg % 2 == 0) ? 0.4f : -0.4f;
        mb.addCylinder({x, 1.0f, z}, {x, 0.0f, z}, 0.12f, 8, 3);
    }
    // Fur: the dominant geometry, mirroring LumiBench FOX's outsized
    // BVH-per-triangle ratio. Strands rooted on the torso/tail surfaces.
    uint32_t used = uint32_t(mb.triangleCount());
    uint32_t ground_budget = budget / 12;
    uint32_t strands = budget > used + ground_budget
                           ? (budget - used - ground_budget) / 2
                           : 100;
    for (uint32_t i = 0; i < strands; i++) {
        Vec3 d = sampleUniformSphere(rng.nextFloat(), rng.nextFloat());
        bool tail = rng.nextFloat() < 0.25f;
        Vec3 root;
        uint32_t mat = 0;
        if (tail) {
            float t = rng.nextFloat();
            Vec3 axis = lerp({-1.3f, 1.0f, 0}, {-2.8f, 1.4f, 0}, t);
            root = axis + d * (0.35f * (1.0f - t) + 0.05f);
            mat = t > 0.8f ? 1u : 0u;
        } else {
            root = Vec3{d.x * 1.5f, 1.0f + d.y * 0.85f, d.z * 0.8f};
            mat = (d.y < -0.3f && d.x > 0.2f) ? 1u : 0u;
        }
        mb.addBlade(root, rng.nextRange(0.06f, 0.16f),
                    rng.nextRange(0.01f, 0.03f), d.x * 0.08f, d.z * 0.08f,
                    mat);
    }
    int res = gridResForBudget(ground_budget);
    mb.addHeightfield(-7, -7, 7, 7, res, res, 2, [](float x, float z) {
        return 0.1f * fbm2(x * 0.6f, z * 0.6f, 3, 201u);
    });

    addLightPanel(s, mb, {15, 14, 13});
    s.triangles = std::move(mb.triangles());
    autoCamera(s, 25, 14, 1.3f);
    return s;
}

Scene
makeCar(uint32_t budget)
{
    Scene s;
    s.name = "CAR";
    s.materials = {Material::glossy({0.7f, 0.1f, 0.12f}, 0.08f), // paint
                   Material::lambert({0.1f, 0.1f, 0.12f}),       // tires
                   Material::mirror({0.9f, 0.9f, 0.95f}),        // chrome
                   Material::lambert({0.75f, 0.75f, 0.78f}),     // floor
                   Material::glossy({0.4f, 0.5f, 0.6f}, 0.03f)}; // glass-ish

    MeshBuilder mb;
    // Dense body shell: displaced, stretched sphere. The displacement
    // carves wheel arches and a cabin bulge so the silhouette is car-like.
    uint32_t body_budget = budget / 2;
    int sub = sphereSubdivForBudget(body_budget);
    MeshBuilder shell;
    shell.addSphere({0, 0, 0}, 1.0f, sub, 0, [](const Vec3 &p) {
        float cabin = 0.35f * std::exp(-8.0f * (p.x - 0.1f) * (p.x - 0.1f)) *
                      std::fmax(0.0f, p.y);
        float arch = 0.0f;
        for (float wx : {-0.55f, 0.55f}) {
            float dx = p.x - wx;
            float dy = p.y + 0.55f;
            arch -= 0.25f * std::exp(-30.0f * (dx * dx + dy * dy));
        }
        return cabin + arch +
               0.015f * fbm2(p.x * 6, p.y * 6 + p.z * 3, 2, 211u);
    });
    mb.append(shell, Transform::translate({0, 0.85f, 0})
                         .compose(Transform::scale({2.3f, 0.65f, 1.0f})));
    // Windshield band.
    MeshBuilder cabin;
    cabin.addSphere({0, 0, 0}, 1.0f, std::max(2, sub - 2), 4);
    mb.append(cabin, Transform::translate({0.25f, 1.35f, 0})
                         .compose(Transform::scale({1.0f, 0.35f, 0.85f})));
    // Wheels: dense short cylinders plus chrome hub spheres.
    uint32_t wheel_budget = budget / 8;
    int wheel_seg = std::max(12, int(wheel_budget / 4 / 4));
    for (float wx : {-1.35f, 1.35f}) {
        for (float wz : {-0.95f, 0.95f}) {
            mb.addCylinder({wx, 0.4f, wz - 0.12f}, {wx, 0.4f, wz + 0.12f},
                           0.4f, wheel_seg, 1);
            mb.addSphere({wx, 0.4f, wz + (wz > 0 ? 0.13f : -0.13f)}, 0.18f,
                         3, 2);
        }
    }
    // Showroom: tessellated floor and back wall.
    uint32_t used = uint32_t(mb.triangleCount());
    uint32_t rest = budget > used ? budget - used : 2;
    int res = gridResForBudget(rest * 3 / 4);
    mb.addHeightfield(-6, -5, 6, 5, res, res, 3, [](float, float) {
        return 0.0f;
    });
    int wres = gridResForBudget(rest / 4);
    // Back wall as a vertical heightfield (built flat then rotated).
    MeshBuilder wall;
    wall.addHeightfield(-6, 0, 6, 4, wres, std::max(1, wres / 2), 3,
                        [](float, float) { return 0.0f; });
    Transform wallxf;
    // Rotate the heightfield's (x, z) plane up to (x, y): swap y/z.
    wallxf.m[1][1] = 0;
    wallxf.m[1][2] = 1;
    wallxf.m[2][1] = 1;
    wallxf.m[2][2] = 0;
    wallxf.t = {0, 0, -5.0f};
    mb.append(wall, wallxf);

    addLightPanel(s, mb, {17, 16, 15});
    s.triangles = std::move(mb.triangles());
    autoCamera(s, 30, 10, 1.35f);
    return s;
}

Scene
makeRobot(uint32_t budget)
{
    Scene s;
    s.name = "ROBOT";
    s.materials = {Material::glossy({0.6f, 0.62f, 0.65f}, 0.15f), // steel
                   Material::lambert({0.8f, 0.5f, 0.1f}),         // accent
                   Material::mirror({0.85f, 0.87f, 0.9f}),        // chrome
                   Material::lambert({0.3f, 0.3f, 0.32f}),        // joints
                   Material::emissive({4, 8, 10}),                // eyes
                   Material::lambert({0.55f, 0.55f, 0.58f})};     // floor

    MeshBuilder mb;
    Pcg32 rng(2121);
    // The robot is assembled from densely tessellated, noise-perturbed
    // parts so the BVH has both large structures and fine detail.
    uint32_t part_budget = budget * 3 / 4;
    auto plated = [](uint32_t seed) {
        return [seed](const Vec3 &p) {
            // Panel lines: quantized noise gives a plated-armour look.
            float v = valueNoise2(p.x * 5 + float(seed % 31), p.y * 5 + p.z,
                                  seed);
            return 0.05f * std::floor(v * 4.0f) / 4.0f;
        };
    };
    struct Part
    {
        Vec3 pos;
        Vec3 scale;
        uint32_t mat;
        float share; // fraction of part budget
    };
    const Part parts[] = {
        {{0, 3.2f, 0}, {1.2f, 1.6f, 0.8f}, 0, 0.28f},     // torso
        {{0, 5.4f, 0}, {0.6f, 0.65f, 0.6f}, 0, 0.12f},    // head
        {{-1.7f, 3.9f, 0}, {0.4f, 1.2f, 0.4f}, 1, 0.10f}, // L upper arm
        {{1.7f, 3.9f, 0}, {0.4f, 1.2f, 0.4f}, 1, 0.10f},  // R upper arm
        {{-1.8f, 2.2f, 0.3f}, {0.32f, 1.0f, 0.32f}, 0, 0.07f},
        {{1.8f, 2.2f, 0.3f}, {0.32f, 1.0f, 0.32f}, 0, 0.07f},
        {{-0.6f, 1.0f, 0}, {0.45f, 1.1f, 0.45f}, 1, 0.10f}, // L leg
        {{0.6f, 1.0f, 0}, {0.45f, 1.1f, 0.45f}, 1, 0.10f},  // R leg
        {{0, 4.5f, 0}, {0.5f, 0.3f, 0.5f}, 3, 0.06f},       // neck
    };
    for (const auto &p : parts) {
        uint32_t b = uint32_t(part_budget * p.share);
        int sub = sphereSubdivForBudget(b);
        MeshBuilder part;
        part.addSphere({0, 0, 0}, 1.0f, sub, p.mat, plated(rng.nextU32()));
        mb.append(part, Transform::translate(p.pos)
                            .compose(Transform::scale(p.scale)));
    }
    // Joints and details.
    for (float sx : {-1.0f, 1.0f}) {
        mb.addSphere({sx * 1.7f, 3.0f, 0.15f}, 0.3f, 3, 2); // elbows
        mb.addSphere({sx * 0.6f, 0.0f, 0.2f}, 0.35f, 3, 3); // feet
        mb.addSphere({sx * 0.22f, 5.5f, 0.5f}, 0.09f, 2, 4); // eyes
    }
    // Antenna and chest plate.
    mb.addCylinder({0, 6.0f, 0}, {0, 6.9f, 0}, 0.04f, 8, 2);
    mb.addSphere({0, 7.0f, 0}, 0.1f, 2, 4);
    mb.addBox({-0.5f, 3.1f, 0.72f}, {0.5f, 3.9f, 0.85f}, 2);

    // Workshop floor consumes the rest.
    uint32_t used = uint32_t(mb.triangleCount());
    int res = gridResForBudget(budget > used ? budget - used : 2);
    mb.addHeightfield(-8, -8, 8, 8, res, res, 5, [](float x, float z) {
        return 0.015f * valueNoise2(x * 2, z * 2, 241u);
    });

    addLightPanel(s, mb, {14, 14, 14});
    s.triangles = std::move(mb.triangles());
    autoCamera(s, 20, 15, 1.35f);
    return s;
}

} // anonymous namespace

const std::vector<SceneSpec> &
lumiBenchSpecs()
{
    // Triangle budgets are ~1/16 of Table 2; FOX is upscaled to preserve
    // the paper's ascending-BVH-size ordering (see file comment).
    static const std::vector<SceneSpec> specs = {
        {"BUNNY", 36000, 13.18,  144100,   "lumpy hero object on terrain"},
        {"SPNZA", 65600, 22.84,  262300,   "colonnaded atrium interior"},
        {"CHSNT", 78400, 28.28,  313200,   "single large tree with leaves"},
        {"REF", 112000, 40.36,  448900,   "mirror/glossy reflection rig"},
        {"CRNVL", 112400, 60.67,  449600,   "carnival: wheel, tents, stalls"},
        {"BATH", 106000, 112.79, 423600,   "tiled bathroom with mirror"},
        {"PARTY", 424000, 156.05, 1700000,  "room full of confetti"},
        {"SPRNG", 476000, 177.96, 1900000,  "meadow with grass blades"},
        {"LANDS", 824000, 303.48, 3300000,  "mountainous heightfield"},
        {"FRST", 1048000, 380.51, 4200000,  "instanced conifer forest"},
        {"PARK", 1500000, 542.53, 6000000,  "park with path and trees"},
        {"FOX", 1800000, 648.48, 1600000,  "fur-covered creature"},
        {"CAR", 3176000, 1328.23, 12700000, "dense car shell in showroom"},
        {"ROBOT", 5152000, 1868.95, 20600000, "plated robot, many parts"},
    };
    return specs;
}

std::vector<std::string>
sceneNames()
{
    std::vector<std::string> names;
    for (const auto &s : lumiBenchSpecs())
        names.push_back(s.name);
    return names;
}

const SceneSpec &
sceneSpec(const std::string &name)
{
    for (const auto &s : lumiBenchSpecs())
        if (s.name == name)
            return s;
    throw std::out_of_range("unknown scene: " + name);
}

namespace
{

Scene
generateScene(const std::string &name, uint32_t budget)
{
    if (name == "BUNNY")
        return makeBunny(budget);
    if (name == "SPNZA")
        return makeSponza(budget);
    if (name == "CHSNT")
        return makeChestnut(budget);
    if (name == "REF")
        return makeRef(budget);
    if (name == "CRNVL")
        return makeCarnival(budget);
    if (name == "BATH")
        return makeBathroom(budget);
    if (name == "PARTY")
        return makeParty(budget);
    if (name == "SPRNG")
        return makeSpring(budget);
    if (name == "LANDS")
        return makeLandscape(budget);
    if (name == "FRST")
        return makeForest(budget);
    if (name == "PARK")
        return makePark(budget);
    if (name == "FOX")
        return makeFox(budget);
    if (name == "CAR")
        return makeCar(budget);
    if (name == "ROBOT")
        return makeRobot(budget);
    throw std::out_of_range("unknown scene: " + name);
}

} // anonymous namespace

Scene
buildScene(const std::string &name, float scale)
{
    const SceneSpec &spec = sceneSpec(name);
    uint32_t budget =
        std::max(500u, uint32_t(double(spec.targetTris) * double(scale)));
    Scene s = generateScene(name, budget);
    // Generators append instanced meshes with geometric growth; drop
    // the slack before the scene lives on beside its BVH.
    s.triangles.shrink_to_fit();
    return s;
}

} // namespace trt
