// Command renderimg renders the Fig. 10 analogue images: a synthetic plume,
// combustion, or supernova volume ray-cast to a PNG, optionally through the
// full brick-decompose/composite pipeline to prove it matches a monolithic
// render.
//
// Usage:
//
//	renderimg -name supernova -factor 12 -size 512 -o supernova.png
//	renderimg -name plume -bricks 4 -o plume.png
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"vizsched/internal/compositing"
	"vizsched/internal/img"
	"vizsched/internal/raycast"
	"vizsched/internal/volume"
)

func main() {
	name := flag.String("name", "supernova", "field name: plume, combustion, supernova, or a seed name")
	factor := flag.Int("factor", 16, "downscale factor from the paper's dimensions")
	size := flag.Int("size", 384, "output image size (square)")
	bricks := flag.Int("bricks", 1, "render through N bricks + 2-3-swap compositing instead of monolithic")
	angle := flag.Float64("angle", 0.65, "camera azimuth (radians)")
	elevation := flag.Float64("elevation", 0.35, "camera elevation (radians)")
	dist := flag.Float64("dist", 2.3, "camera distance (unit-cube multiples)")
	shade := flag.Bool("shade", true, "gradient diffuse shading")
	mode := flag.String("mode", "composite", "render mode: composite, mip, or iso")
	iso := flag.Float64("iso", 0.5, "isosurface threshold (mode=iso)")
	out := flag.String("o", "", "output PNG path (required)")
	flag.Parse()

	if *out == "" {
		fmt.Fprintln(os.Stderr, "renderimg: -o is required")
		os.Exit(2)
	}
	dims, err := volume.FigureDims(*name, *factor)
	if err != nil {
		dims = [3]int{64, 64, 64}
	}
	fmt.Printf("generating %s %dx%dx%d...\n", *name, dims[0], dims[1], dims[2])
	g := volume.Generate(volume.FieldByName(*name), dims[0], dims[1], dims[2])
	cam := raycast.NewCamera(*angle, *elevation, *dist)
	tf := raycast.PresetTF(*name)
	opt := raycast.Options{Width: *size, Height: *size, Shading: *shade, Parallel: true, IsoValue: float32(*iso)}
	switch *mode {
	case "composite":
		opt.Mode = raycast.ModeComposite
	case "mip":
		opt.Mode = raycast.ModeMIP
	case "iso":
		opt.Mode = raycast.ModeIso
	default:
		fmt.Fprintf(os.Stderr, "renderimg: unknown -mode %q\n", *mode)
		os.Exit(2)
	}

	var final *img.Image
	if *bricks <= 1 {
		fmt.Println("ray casting (monolithic)...")
		final = raycast.RenderFull(g, cam, tf, opt)
	} else {
		fmt.Printf("ray casting %d bricks + 2-3 swap compositing...\n", *bricks)
		boxes := volume.BrickZ(g.Dims, *bricks)
		images := make([]*img.Image, len(boxes))
		depths := make([]float64, len(boxes))
		for i, box := range boxes {
			frag := raycast.RenderBrick(raycast.MakeBrick(g, box), cam, tf, opt)
			images[i] = frag.Image
			depths[i] = frag.Depth
		}
		layers := compositing.ByDepth(images, depths)
		var st compositing.Stats
		final, st = compositing.TwoThreeSwap{}.Composite(layers)
		fmt.Printf("compositing: %d rounds, %d messages, %s moved\n",
			st.Rounds, st.Messages, fmtBytes(st.BytesSent()))
	}
	if err := final.SavePNG(*out); err != nil {
		fmt.Fprintln(os.Stderr, "renderimg:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (mean luminance %.3f)\n", *out, final.Luminance())
}

func fmtBytes(n int64) string {
	if n <= 0 {
		return "0B"
	}
	units := []string{"B", "KB", "MB", "GB"}
	f := float64(n)
	i := 0
	for f >= 1024 && i < len(units)-1 {
		f /= 1024
		i++
	}
	if math.Floor(f) == f {
		return fmt.Sprintf("%.0f%s", f, units[i])
	}
	return fmt.Sprintf("%.1f%s", f, units[i])
}
