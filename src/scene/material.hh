/**
 * @file
 * Surface material model for the path tracer. Kept deliberately small:
 * the paper's workload is LumiBench path tracing at 1 spp with lambertian
 * and specular surfaces plus emitters; what matters architecturally is the
 * ray *divergence* each material class induces, not shading fidelity.
 */

#ifndef TRT_SCENE_MATERIAL_HH
#define TRT_SCENE_MATERIAL_HH

#include <cstdint>

#include "geom/vec.hh"

namespace trt
{

/** Material archetypes. */
enum class MaterialType : uint8_t
{
    Lambert,   //!< Diffuse; scatters into the cosine hemisphere (incoherent
               //!< secondary rays -> the hard case for caches).
    Mirror,    //!< Perfect specular reflection (coherent secondaries).
    Glossy,    //!< Specular with roughness-perturbed reflection.
    Emissive,  //!< Light source; terminates the path.
};

/** A surface material. */
struct Material
{
    MaterialType type = MaterialType::Lambert;
    /** Explicit, zeroed padding: bundle files copy materials whole, so
     *  no byte may be left uninitialized. */
    uint8_t pad[3] = {};
    Vec3 albedo{0.8f, 0.8f, 0.8f};
    Vec3 emission{0.0f, 0.0f, 0.0f};
    float roughness = 0.0f;  //!< Glossy lobe width in [0, 1].

    static Material
    lambert(const Vec3 &albedo)
    {
        Material m;
        m.type = MaterialType::Lambert;
        m.albedo = albedo;
        return m;
    }

    static Material
    mirror(const Vec3 &albedo = {0.95f, 0.95f, 0.95f})
    {
        Material m;
        m.type = MaterialType::Mirror;
        m.albedo = albedo;
        return m;
    }

    static Material
    glossy(const Vec3 &albedo, float roughness)
    {
        Material m;
        m.type = MaterialType::Glossy;
        m.albedo = albedo;
        m.roughness = roughness;
        return m;
    }

    static Material
    emissive(const Vec3 &emission)
    {
        Material m;
        m.type = MaterialType::Emissive;
        m.emission = emission;
        m.albedo = {0.0f, 0.0f, 0.0f};
        return m;
    }
};
static_assert(sizeof(Material) == 32, "Material has implicit padding");

} // namespace trt

#endif // TRT_SCENE_MATERIAL_HH
