package service

import (
	"vizsched/internal/transport"
)

// Wire forms of the protocol bodies: each appends its fields in declaration
// order with the transport package's field encodings and parses them back
// with transport.BodyReader, which checks every length against the bytes
// left. ParseBody assigns the whole struct, so decoding into a reused value
// leaves nothing of the previous message behind.

// Smallest encodings of the list elements, for BodyReader.Count.
const (
	minChunkRefBytes = 2 // empty name + one-byte index
	minTaskRefBytes  = 2 // one-byte job + one-byte index
)

func appendChunkRefs(dst []byte, refs []ChunkRef) []byte {
	dst = transport.AppendUint64(dst, uint64(len(refs)))
	for _, c := range refs {
		dst = transport.AppendString(dst, c.Dataset)
		dst = transport.AppendInt(dst, c.Index)
	}
	return dst
}

func readChunkRefs(r *transport.BodyReader) []ChunkRef {
	n := r.Count(minChunkRefBytes)
	if n == 0 {
		return nil
	}
	refs := make([]ChunkRef, n)
	for i := range refs {
		refs[i] = ChunkRef{Dataset: r.String(), Index: r.Int()}
	}
	return refs
}

func appendTaskRefs(dst []byte, refs []TaskRef) []byte {
	dst = transport.AppendUint64(dst, uint64(len(refs)))
	for _, t := range refs {
		dst = transport.AppendUint64(dst, t.JobID)
		dst = transport.AppendInt(dst, t.TaskIndex)
	}
	return dst
}

func readTaskRefs(r *transport.BodyReader) []TaskRef {
	n := r.Count(minTaskRefBytes)
	if n == 0 {
		return nil
	}
	refs := make([]TaskRef, n)
	for i := range refs {
		refs[i] = TaskRef{JobID: r.Uint64(), TaskIndex: r.Int()}
	}
	return refs
}

// AppendBody implements transport.BodyAppender.
func (b HelloBody) AppendBody(dst []byte) []byte {
	dst = transport.AppendString(dst, b.Name)
	dst = transport.AppendInt64(dst, b.MemQuota)
	dst = transport.AppendInt(dst, b.NodeID)
	dst = transport.AppendBool(dst, b.Rejoin)
	dst = transport.AppendInt(dst, b.Shard)
	dst = transport.AppendInt(dst, b.Slots)
	dst = transport.AppendBool(dst, b.Resync)
	dst = appendChunkRefs(dst, b.Cached)
	dst = appendTaskRefs(dst, b.Completed)
	return appendTaskRefs(dst, b.Outstanding)
}

// ParseBody implements transport.BodyParser.
func (b *HelloBody) ParseBody(src []byte) error {
	r := transport.NewBodyReader(src)
	*b = HelloBody{
		Name:        r.String(),
		MemQuota:    r.Int64(),
		NodeID:      r.Int(),
		Rejoin:      r.Bool(),
		Shard:       r.Int(),
		Slots:       r.Int(),
		Resync:      r.Bool(),
		Cached:      readChunkRefs(&r),
		Completed:   readTaskRefs(&r),
		Outstanding: readTaskRefs(&r),
	}
	return r.Done()
}

func readRender(r *transport.BodyReader) RenderBody {
	return RenderBody{
		Dataset:   r.String(),
		Angle:     r.Float64(),
		Elevation: r.Float64(),
		Dist:      r.Float64(),
		Width:     r.Int(),
		Height:    r.Int(),
		Mode:      r.Int(),
		IsoValue:  r.Float32(),
		Batch:     r.Bool(),
		Action:    r.Int(),
		Tenant:    r.Int(),
		Key:       r.Uint64(),
	}
}

// AppendBody implements transport.BodyAppender.
func (b RenderBody) AppendBody(dst []byte) []byte {
	dst = transport.AppendString(dst, b.Dataset)
	dst = transport.AppendFloat64(dst, b.Angle)
	dst = transport.AppendFloat64(dst, b.Elevation)
	dst = transport.AppendFloat64(dst, b.Dist)
	dst = transport.AppendInt(dst, b.Width)
	dst = transport.AppendInt(dst, b.Height)
	dst = transport.AppendInt(dst, b.Mode)
	dst = transport.AppendFloat32(dst, b.IsoValue)
	dst = transport.AppendBool(dst, b.Batch)
	dst = transport.AppendInt(dst, b.Action)
	dst = transport.AppendInt(dst, b.Tenant)
	return transport.AppendUint64(dst, b.Key)
}

// ParseBody implements transport.BodyParser.
func (b *RenderBody) ParseBody(src []byte) error {
	r := transport.NewBodyReader(src)
	*b = readRender(&r)
	return r.Done()
}

// AppendBody implements transport.BodyAppender.
func (b TaskBody) AppendBody(dst []byte) []byte {
	dst = transport.AppendUint64(dst, b.JobID)
	dst = transport.AppendInt(dst, b.TaskIndex)
	dst = transport.AppendString(dst, b.Dataset)
	dst = transport.AppendInt(dst, b.Chunk)
	return b.Render.AppendBody(dst)
}

// ParseBody implements transport.BodyParser.
func (b *TaskBody) ParseBody(src []byte) error {
	r := transport.NewBodyReader(src)
	*b = TaskBody{
		JobID:     r.Uint64(),
		TaskIndex: r.Int(),
		Dataset:   r.String(),
		Chunk:     r.Int(),
		Render:    readRender(&r),
	}
	return r.Done()
}

// AppendBody implements transport.BodyAppender.
func (b FragmentBody) AppendBody(dst []byte) []byte {
	dst = transport.AppendUint64(dst, b.JobID)
	dst = transport.AppendInt(dst, b.TaskIndex)
	dst = transport.AppendInt(dst, b.X0)
	dst = transport.AppendInt(dst, b.Y0)
	dst = transport.AppendInt(dst, b.W)
	dst = transport.AppendInt(dst, b.H)
	dst = transport.AppendInt(dst, b.Codec)
	dst = transport.AppendBytes(dst, b.Data)
	dst = transport.AppendFloat64(dst, b.Depth)
	dst = transport.AppendBool(dst, b.Hit)
	dst = transport.AppendInt64(dst, b.ExecNanos)
	return appendChunkRefs(dst, b.Evicted)
}

// ParseBody implements transport.BodyParser. Data aliases src.
func (b *FragmentBody) ParseBody(src []byte) error {
	r := transport.NewBodyReader(src)
	*b = FragmentBody{
		JobID:     r.Uint64(),
		TaskIndex: r.Int(),
		X0:        r.Int(),
		Y0:        r.Int(),
		W:         r.Int(),
		H:         r.Int(),
		Codec:     r.Int(),
		Data:      r.Bytes(),
		Depth:     r.Float64(),
		Hit:       r.Bool(),
		ExecNanos: r.Int64(),
		Evicted:   readChunkRefs(&r),
	}
	return r.Done()
}

// AppendBody implements transport.BodyAppender.
func (b PrefetchBody) AppendBody(dst []byte) []byte {
	dst = transport.AppendString(dst, b.Dataset)
	return transport.AppendInt(dst, b.Chunk)
}

// ParseBody implements transport.BodyParser.
func (b *PrefetchBody) ParseBody(src []byte) error {
	r := transport.NewBodyReader(src)
	*b = PrefetchBody{Dataset: r.String(), Chunk: r.Int()}
	return r.Done()
}

// AppendBody implements transport.BodyAppender.
func (b PrefetchDoneBody) AppendBody(dst []byte) []byte {
	dst = transport.AppendString(dst, b.Dataset)
	dst = transport.AppendInt(dst, b.Chunk)
	dst = transport.AppendBool(dst, b.Resident)
	dst = transport.AppendBool(dst, b.Loaded)
	dst = transport.AppendInt64(dst, b.Nanos)
	return appendChunkRefs(dst, b.Evicted)
}

// ParseBody implements transport.BodyParser.
func (b *PrefetchDoneBody) ParseBody(src []byte) error {
	r := transport.NewBodyReader(src)
	*b = PrefetchDoneBody{
		Dataset:  r.String(),
		Chunk:    r.Int(),
		Resident: r.Bool(),
		Loaded:   r.Bool(),
		Nanos:    r.Int64(),
		Evicted:  readChunkRefs(&r),
	}
	return r.Done()
}

// AppendBody implements transport.BodyAppender.
func (b ResultBody) AppendBody(dst []byte) []byte {
	dst = transport.AppendInt(dst, b.Width)
	dst = transport.AppendInt(dst, b.Height)
	dst = transport.AppendBytes(dst, b.PNG)
	dst = transport.AppendInt64(dst, b.ElapsedNanos)
	dst = transport.AppendInt(dst, b.Hits)
	return transport.AppendInt(dst, b.Misses)
}

// ParseBody implements transport.BodyParser. PNG aliases src.
func (b *ResultBody) ParseBody(src []byte) error {
	r := transport.NewBodyReader(src)
	*b = ResultBody{
		Width:        r.Int(),
		Height:       r.Int(),
		PNG:          r.Bytes(),
		ElapsedNanos: r.Int64(),
		Hits:         r.Int(),
		Misses:       r.Int(),
	}
	return r.Done()
}

// AppendBody implements transport.BodyAppender.
func (b ErrorBody) AppendBody(dst []byte) []byte {
	return transport.AppendString(dst, b.Msg)
}

// ParseBody implements transport.BodyParser.
func (b *ErrorBody) ParseBody(src []byte) error {
	r := transport.NewBodyReader(src)
	*b = ErrorBody{Msg: r.String()}
	return r.Done()
}
